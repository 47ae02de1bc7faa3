"""Web application workload: latency, SLO accounting, telemetry."""

import pytest

from repro.core.api import connect
from repro.core.clock import SimulationClock
from repro.core.config import ShareConfig
from repro.workloads.traces import constant_request_trace
from repro.workloads.webapp import WebApplication
from tests.conftest import make_ecovisor


def bind(app, workers=0):
    eco = make_ecovisor(solar_w=0.0)
    eco.admit_app(app.name, ShareConfig())
    api = connect(eco, app.name)
    app.bind(api)
    if workers:
        api.scale_to(workers, cores=1)
    return eco, api


def drive(eco, app, ticks, served_fraction=1.0, clock=None):
    clock = clock or SimulationClock(60.0)
    for _ in range(ticks):
        tick = clock.current_tick()
        eco.begin_tick(tick)
        eco.invoke_app_ticks(tick)
        app.step(tick, tick.duration_s)
        eco.settle(tick)
        app.finish_tick(tick, tick.duration_s, served_fraction)
        clock.advance()
    return clock


class TestDemandUtilization:
    def test_busy_fraction_tracks_load(self):
        app = WebApplication("w", constant_request_trace(100.0), service_rate_rps=100.0)
        eco, api = bind(app, workers=2)
        drive(eco, app, 1)
        for container in api.list_containers():
            assert container.demand_utilization == pytest.approx(0.5)

    def test_overload_saturates_utilization(self):
        app = WebApplication("w", constant_request_trace(1000.0), service_rate_rps=100.0)
        eco, api = bind(app, workers=2)
        drive(eco, app, 1)
        for container in api.list_containers():
            assert container.demand_utilization == pytest.approx(1.0)


class TestLatencyAndSlo:
    def test_adequate_pool_meets_slo(self):
        app = WebApplication(
            "w", constant_request_trace(100.0), slo_ms=60.0, service_rate_rps=100.0
        )
        eco, _ = bind(app, workers=4)
        drive(eco, app, 5)
        assert app.violation_ticks == 0
        assert app.mean_latency_ms <= 60.0

    def test_underprovisioned_pool_violates(self):
        app = WebApplication(
            "w", constant_request_trace(250.0), slo_ms=60.0, service_rate_rps=100.0
        )
        eco, _ = bind(app, workers=2)  # capacity 200 < 250: unstable
        drive(eco, app, 5)
        assert app.violation_ticks == 5
        assert app.violation_fraction == 1.0

    def test_power_cap_degrades_latency(self):
        app = WebApplication(
            "w", constant_request_trace(250.0), slo_ms=60.0, service_rate_rps=100.0
        )
        eco, api = bind(app, workers=4)
        clock = drive(eco, app, 2)
        uncapped_worst = app.worst_latency_ms
        for container in api.list_containers():
            api.set_container_powercap(container.id, 0.6)
        drive(eco, app, 2, clock=clock)
        assert app.worst_latency_ms > uncapped_worst

    def test_power_shortage_degrades_latency(self):
        app = WebApplication(
            "w", constant_request_trace(250.0), slo_ms=60.0, service_rate_rps=100.0
        )
        eco, _ = bind(app, workers=3)
        drive(eco, app, 2, served_fraction=0.5)
        assert app.violation_ticks > 0

    def test_outage_when_no_workers_under_load(self):
        app = WebApplication("w", constant_request_trace(100.0))
        eco, _ = bind(app, workers=0)
        drive(eco, app, 1)
        assert app.worst_latency_ms == pytest.approx(60000.0)

    def test_trickle_load_without_workers_is_not_outage(self):
        app = WebApplication("w", constant_request_trace(0.5))
        eco, _ = bind(app, workers=0)
        drive(eco, app, 1)
        assert app.worst_latency_ms == 0.0


class TestTelemetry:
    def test_series_recorded(self):
        app = WebApplication("w", constant_request_trace(100.0))
        eco, _ = bind(app, workers=2)
        drive(eco, app, 3)
        db = eco.database
        assert len(db.series("app.w.p95_ms")) == 3
        assert db.latest("app.w.request_rate_rps") == pytest.approx(100.0)
        assert db.latest("app.w.slo_violated") in (0.0, 1.0)

    def test_writes_leave_the_columnar_backlog_buffered(self):
        """The app appends through held handles, so its per-tick writes do
        not write the ecovisor's buffered telemetry back every tick; the
        series match the object path's."""

        def run(columnar):
            app = WebApplication("w", constant_request_trace(150.0))
            eco, _ = bind(app, workers=2)
            eco.columnar = columnar
            drive(eco, app, 5)
            [(_, _, pending)] = eco.metrics.get("telemetry_pending_records").samples()
            return pending, eco.database

        pending, db = run(True)
        assert pending == 4  # all but the tick whose write resolved the handles
        _, reference = run(False)
        for name in ("app.w.p95_ms", "app.w.request_rate_rps", "app.w.power_w"):
            assert db.series(name).times().tolist() == reference.series(name).times().tolist()
            assert db.series(name).values().tolist() == reference.series(name).values().tolist()

    def test_requests_counted(self):
        app = WebApplication("w", constant_request_trace(100.0))
        eco, _ = bind(app, workers=2)
        drive(eco, app, 2)
        assert app.requests_total == pytest.approx(100.0 * 120.0)


class TestSizingHelper:
    def test_workers_needed_for_slo(self):
        app = WebApplication(
            "w", constant_request_trace(200.0), slo_ms=60.0, service_rate_rps=100.0
        )
        eco, _ = bind(app, workers=1)
        drive(eco, app, 1)
        needed = app.workers_needed_for_slo()
        assert needed >= 3


class TestValidation:
    def test_rejects_bad_slo(self):
        with pytest.raises(ValueError):
            WebApplication("w", constant_request_trace(1.0), slo_ms=0.0)

    def test_rejects_bad_service_rate(self):
        with pytest.raises(ValueError):
            WebApplication("w", constant_request_trace(1.0), service_rate_rps=0.0)
