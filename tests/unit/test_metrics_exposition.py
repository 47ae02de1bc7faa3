"""Exposition lint for ``GET /v1/metrics`` and router instrumentation.

The format lint parses the *live* server's scrape output and checks it
against the Prometheus text exposition rules (name/label charsets, one
``# TYPE`` per family, cumulative histogram buckets, ``le="+Inf"`` equal
to ``_count``) — so any metric anyone registers anywhere in the stack is
linted, not just the ones this file knows about.
"""

import re

import pytest

from repro.core.config import ShareConfig
from repro.obs.metrics import MetricsRegistry
from repro.rest.router import UNMATCHED_ROUTE_LABEL, Router
from repro.rest.server import EcovisorRestServer
from repro.sim.engine import SimulationEngine
from repro.sim.fleet import build_churn_fleet
from repro.workloads.mltrain import MLTrainingJob
from tests.conftest import make_ecovisor

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
# Label values may themselves contain "}" (route patterns like
# "/v1/apps/{app}/state"), so the label block is matched greedily up to
# the last "}" before the value.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})? "
    r"(?P<value>\S+)$"
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text: str):
    """Parse a scrape into (types, samples); asserts structural rules."""
    types = {}
    samples = []
    current_family = None
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert name not in types, f"duplicate # TYPE for {name}"
            types[name] = kind
            current_family = name
            continue
        assert not line.startswith("#"), f"unknown comment line: {line}"
        match = _SAMPLE_RE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        name = match.group("name")
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        family = name if name in types else base
        assert family in types, f"sample {name} has no # TYPE"
        # Samples must be contiguous under their family's TYPE line.
        assert family == current_family, f"{name} outside its family block"
        labels = dict(_LABEL_PAIR_RE.findall(match.group("labels") or ""))
        value = float(match.group("value").replace("+Inf", "inf"))
        samples.append((name, labels, value))
    return types, samples


def lint_exposition(text: str):
    """The format lint: charset, kind, and histogram-shape rules."""
    types, samples = parse_exposition(text)
    assert types, "scrape exposed no metrics"
    for name, kind in types.items():
        assert _NAME_RE.match(name), f"bad metric name {name!r}"
        assert kind in ("counter", "gauge", "histogram"), kind
    by_series = {}
    for name, labels, value in samples:
        for label in labels:
            assert _LABEL_RE.match(label), f"bad label name {label!r}"
            assert not label.startswith("__"), label
        key = (name, tuple(sorted(labels.items())))
        assert key not in by_series, f"duplicate series {key}"
        by_series[key] = value
        if name.endswith("_total") or name.endswith("_count"):
            assert value >= 0, f"{name} negative: {value}"
    # Histogram shape: buckets cumulative, +Inf == _count, sum present.
    for name, kind in types.items():
        if kind != "histogram":
            continue
        series = {}
        for sample, labels, value in samples:
            if sample == f"{name}_bucket":
                rest = tuple(
                    sorted((k, v) for k, v in labels.items() if k != "le")
                )
                series.setdefault(rest, []).append(
                    (float(labels["le"].replace("+Inf", "inf")), value)
                )
        counts = {
            tuple(sorted(labels.items())): value
            for sample, labels, value in samples
            if sample == f"{name}_count"
        }
        assert series, f"histogram {name} exposed no buckets"
        for rest, buckets in series.items():
            ordered = sorted(buckets)
            values = [count for _, count in ordered]
            assert values == sorted(values), f"{name}{rest} not cumulative"
            assert ordered[-1][0] == float("inf"), f"{name}{rest} missing +Inf"
            assert ordered[-1][1] == counts[rest], (
                f"{name}{rest} +Inf bucket != _count"
            )
    return types, by_series


@pytest.fixture
def world():
    """An ecovisor with a profiled engine run and scraped REST traffic."""
    ecovisor = make_ecovisor()
    engine = SimulationEngine(ecovisor)
    engine.add_application(
        MLTrainingJob(name="a", total_work_units=1e6),
        ShareConfig(grid_power_w=float("inf")),
    )
    server = EcovisorRestServer(ecovisor)
    engine.run(20)
    server.request("GET", "/v1/apps/a/state")
    server.request("GET", "/v1/apps/missing/state")  # 404 on a route
    server.request("GET", "/no/such/path")  # 404, no route
    server.request("DELETE", "/v1/apps/a/state")  # 405
    return ecovisor, server


class TestExpositionLint:
    def test_live_scrape_passes_the_lint(self, world):
        ecovisor, server = world
        response = server.request("GET", "/v1/metrics")
        assert response.ok
        assert response.headers["Content-Type"].startswith("text/plain")
        lint_exposition(response.body)

    def test_expected_families_present(self, world):
        ecovisor, server = world
        types, _ = lint_exposition(server.request("GET", "/v1/metrics").body)
        for family in (
            "ticks_begun_total",
            "journal_dropped_total",
            "tick_phase_seconds",
            "tick_total_seconds",
            "slow_ticks_total",
            "http_requests_total",
            "http_request_seconds",
        ):
            assert family in types, f"{family} missing from scrape"
        assert types["tick_phase_seconds"] == "histogram"
        assert types["apps_registered"] == "gauge"

    def test_scrape_counts_prior_scrapes(self, world):
        # The request counter increments after the handler renders, so
        # a scrape reports the scrapes that came before it.
        _, server = world
        server.request("GET", "/v1/metrics")
        server.request("GET", "/v1/metrics")
        _, series = lint_exposition(server.request("GET", "/v1/metrics").body)
        scrapes = series[
            ("http_requests_total", (("route", "/v1/metrics"), ("status", "200")))
        ]
        assert scrapes == 2

    def test_tick_phase_counts_match_run(self, world):
        ecovisor, server = world
        _, series = lint_exposition(server.request("GET", "/v1/metrics").body)
        for phase in ("begin_tick", "settle", "workload_step"):
            key = ("tick_phase_seconds_count", (("phase", phase),))
            assert series[key] == 20


class TestTelemetryFlushMetrics:
    """The columnar write-back runs inside other calls, split by store:
    a ledger read writes back the ledger only, and the records then wait
    for the first database read.  These five metrics make both sides
    visible without forcing either."""

    CHURN = {
        "apps": 8,
        "ticks": 24,
        "seed": 2023,
        "mix": "balanced",
        "admit_rate": 0.8,
        "evict_rate": 0.25,
    }

    def run_churn(self):
        fleet = build_churn_fleet(self.CHURN)
        assert fleet.engine.run(24) == 24
        registry = fleet.ecovisor.metrics

        def value(name):
            return sum(sample[2] for sample in registry.get(name).samples())

        return fleet.ecovisor, value

    def test_write_back_counted_and_scrape_does_not_flush(self):
        ecovisor, value = self.run_churn()
        pending = value("telemetry_pending_records")
        written = value("ledger_write_back_records_total")
        types, series = lint_exposition(ecovisor.metrics.render())
        for name in (
            "ledger_write_back_records_total",
            "ledger_write_back_seconds_total",
            "telemetry_flush_records_total",
            "telemetry_flush_seconds_total",
        ):
            assert types[name] == "counter"
        assert types["telemetry_pending_records"] == "gauge"
        assert series[("telemetry_pending_records", ())] == pending
        assert value("telemetry_pending_records") == pending  # no flush
        assert value("ledger_write_back_records_total") == written

        database, ledger = ecovisor.database, ecovisor.ledger
        for name in database.series_names():
            database.series(name).values()
        for name in ledger.app_names():
            assert ledger.account(name).settlements
        assert value("ledger_write_back_records_total") == 24
        assert value("telemetry_flush_records_total") == 24
        assert value("telemetry_pending_records") == 0
        assert value("ledger_write_back_seconds_total") > 0
        assert value("telemetry_flush_seconds_total") > 0

    def test_lifecycle_calls_write_back_only_the_ledger(self):
        ecovisor, value = self.run_churn()
        # Admissions and evictions read the ledger mid-run, so they
        # wrote it back; the database side of every tick still waits.
        assert 0 < value("ledger_write_back_records_total") < 24
        assert value("telemetry_flush_records_total") == 0
        assert value("telemetry_pending_records") == 24
        ledger = ecovisor.ledger
        for name in ledger.app_names():
            ledger.account(name)
        assert value("ledger_write_back_records_total") == 24
        assert value("telemetry_pending_records") == 24
        # The first database read takes all of them at once.
        assert ecovisor.database.has_series("cluster.power_w")
        assert value("telemetry_flush_records_total") == 24
        assert value("telemetry_pending_records") == 0
        assert len(ecovisor.database.series("cluster.power_w")) == 24


class TestRouterInstrumentation:
    def make_router(self):
        registry = MetricsRegistry()
        router = Router()
        router.add("GET", "/items/{item}", lambda req: {"ok": True})
        router.instrument(registry)
        return router, registry

    def requests_value(self, registry, route, status):
        family = registry.get("http_requests_total")
        return family.labels(route=route, status=status).value

    def test_matched_route_counted_by_pattern(self):
        router, registry = self.make_router()
        router.dispatch("GET", "/items/1")
        router.dispatch("GET", "/items/2")
        # The label is the pattern, not the concrete path: cardinality
        # stays bounded by the route table.
        assert self.requests_value(registry, "/items/{item}", "200") == 2

    def test_404_counted_under_the_unmatched_label(self):
        router, registry = self.make_router()
        router.dispatch("GET", "/nope")
        assert self.requests_value(registry, UNMATCHED_ROUTE_LABEL, "404") == 1

    def test_405_counted_under_the_path_matching_pattern(self):
        router, registry = self.make_router()
        router.dispatch("POST", "/items/1")
        assert self.requests_value(registry, "/items/{item}", "405") == 1

    def test_handler_error_counted_with_its_status(self):
        router, registry = self.make_router()

        def boom(req):
            raise ValueError("bad")

        router.add("GET", "/boom", boom)
        router.dispatch("GET", "/boom")
        assert self.requests_value(registry, "/boom", "400") == 1

    def test_latency_observed_per_route(self):
        router, registry = self.make_router()
        router.dispatch("GET", "/items/1")
        router.dispatch("GET", "/nope")
        latency = registry.get("http_request_seconds")
        assert latency.labels(route="/items/{item}").count == 1
        assert latency.labels(route=UNMATCHED_ROUTE_LABEL).count == 1

    def test_uninstrumented_router_records_nothing(self):
        registry = MetricsRegistry()
        router = Router()
        router.add("GET", "/x", lambda req: {})
        assert router.dispatch("GET", "/x").ok
        assert registry.get("http_requests_total") is None


class TestTicksEndpoint:
    def test_ticks_payload_over_rest(self, world):
        _, server = world
        response = server.request("GET", "/v1/metrics/ticks?last=3")
        assert response.ok
        assert response.body["enabled"] is True
        assert response.body["ticks_recorded"] == 20
        assert response.body["returned"] == 3
        assert [t["tick_index"] for t in response.body["ticks"]] == [17, 18, 19]

    def test_negative_last_is_400(self, world):
        _, server = world
        assert server.request("GET", "/v1/metrics/ticks?last=-1").status == 400

    def test_engineless_ecovisor_reports_disabled(self):
        server = EcovisorRestServer(make_ecovisor())
        response = server.request("GET", "/v1/metrics/ticks")
        assert response.ok
        assert response.body["enabled"] is False
        assert response.body["ticks"] == []
