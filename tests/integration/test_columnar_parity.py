"""Columnar parity: the struct-of-arrays kernel vs the object path.

:mod:`repro.core.fleetarrays` re-implements the per-tick settle and
snapshot arithmetic over dense numpy columns.  Its contract — pinned
here — is that it is an *optimization*, never a semantic change: every
observable the simulator produces must be **byte-identical** between the
columnar hot path (``engine.batched = True``) and the per-app object
reference path (``engine.batched = False``).

This module is a *differential harness*: hypothesis draws randomized
fleet sizes, policy mixes, trace seeds (which select the solar/carbon/
price regimes and, through the shared-plant stride, the battery-holding
subset), and churn schedules, plus committed ``@example`` fleets, and
every fleet is run down both paths and compared on six surfaces:

- per-app :class:`EnergyState` snapshots at every tick (the snapshots
  the columnar path builds from its columns must carry the exact floats
  the object path's do, also when kept past their tick),
- per-app settlement ledgers (every ``TickSettlement`` plus the
  cumulative account totals),
- the full telemetry database (series names, timestamps, values — the
  columnar path buffers these and flushes lazily),
- per-app event journals (battery/solar/share/lifecycle signals in
  publish order, including retired feeds of evicted churn tenants),
- the carbon and price signal histories (both paths sample each tick's
  signals once, live), and
- the workloads' own state (each application's committed progress and
  ``summary()``), which the finish phase writes from settle's served
  fractions and the containers' effective utilizations.

Comparison is by SHA-256 over a canonical JSON dump, so "identical"
means identical down to the float bit patterns (``json.dumps`` emits
shortest-round-trip reprs); on mismatch a recursive diff locates the
first differing (surface, tick, app, field) for a readable failure.

The columnar path buffers telemetry and ledger writes until a store is
read.  A second set of cases draws *read plans*: an observer reads some
tenants' series and accounts after drawn ticks (on both paths), so the
write-back runs in batches from one record to most of the run, across
dense-cache refreshes, container-cache rebuilds and battery full/empty
edges; the reads themselves are compared too.

A third set steps the production path one ``run(1)`` at a time, as
``repro serve`` does, with drawn API and lifecycle writes between the
steps, and compares it with one ``run(N)`` making the same writes from
an observer and with the object path.  Its last cases pin what a step
costs: a step re-lays the fleet out only after a membership or share
change, and writes nothing back until a store is read.
"""

import builtins
import dataclasses
import functools
import hashlib
import json
import math
import operator
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repro.carbon.service import CarbonIntensityService
from repro.carbon.traces import make_region_trace
from repro.cluster.container import reset_container_id_counter
from repro.cluster.cop import ContainerOrchestrationPlatform
from repro.core.api import connect
from repro.core.clock import SimulationClock
from repro.core.config import (
    BatteryConfig,
    CarbonServiceConfig,
    ClusterConfig,
    EcovisorConfig,
    ShareConfig,
    SolarConfig,
)
from repro.core.ecovisor import Ecovisor
from repro.core.errors import EcovisorError, InsufficientResourcesError
from repro.core.events import BatteryEmptyEvent, BatteryFullEvent, SolarChangeEvent
from repro.energy.battery import Battery
from repro.energy.grid import GridConnection
from repro.energy.solar import SolarArrayEmulator, SolarTrace
from repro.energy.system import PhysicalEnergySystem
from repro.policies import CarbonAgnosticPolicy
from repro.sim import experiment
from repro.sim.engine import SimulationEngine
from repro.sim.fleet import (
    POLICY_MIXES,
    build_churn_fleet,
    build_fleet,
    fleet_root_seed,
    run_fleet,
)
from repro.workloads.mltrain import MLTrainingJob
from repro.workloads.spark import SparkJob
from tests.conftest import make_ecovisor, run_ticks

# Small-but-varied fleets: large enough to mix all policy kinds, both
# workload classes, and battery holders vs grid-only tenants; small
# enough that each example's two runs stay well under a second.
FLEET_PARAMS = st.fixed_dictionaries(
    {
        "apps": st.integers(min_value=3, max_value=20),
        "ticks": st.integers(min_value=5, max_value=36),
        "seed": st.integers(min_value=0, max_value=2**16),
        "mix": st.sampled_from(sorted(POLICY_MIXES)),
    }
)

CHURN_PARAMS = st.fixed_dictionaries(
    {
        "apps": st.integers(min_value=6, max_value=12),
        "ticks": st.integers(min_value=8, max_value=24),
        "seed": st.integers(min_value=0, max_value=2**16),
        "mix": st.sampled_from(sorted(POLICY_MIXES)),
        "admit_rate": st.sampled_from([0.0, 0.3, 0.8]),
        "evict_rate": st.sampled_from([0.0, 0.25, 0.7]),
    }
)

#: Store orders a planned read can take (see ``_read``).
STORE_ORDERS = ("ledger", "database", "ledger+database", "database+ledger")

READ_PLANS = st.fixed_dictionaries(
    {
        # Ticks after which the observer reads: adjacent ticks give
        # one-record write-back batches, one late read gives a batch
        # spanning most of the run.
        "at": st.lists(
            st.integers(min_value=0, max_value=36), max_size=8, unique=True
        ),
        # Tenants read, as indices into the sorted live names.
        "tenants": st.lists(
            st.integers(min_value=0, max_value=255), min_size=1, max_size=3
        ),
        # Which stores each read touches, in which order (cycled over
        # the reads): the two stores write back separately, so a
        # one-store read leaves the other's records waiting.
        "stores": st.lists(st.sampled_from(STORE_ORDERS), min_size=1, max_size=4),
    }
)

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    print_blob=True,
)


def _read(ecovisor, tenants, stores="ledger+database"):
    """Read some tenants' ledger accounts and/or telemetry series.

    ``stores`` names the stores read, in order.  On the columnar path
    the first read of a store forces its buffered write-back (a ledger
    read writes back the ledger only); the object path wrote both
    eagerly.
    """
    names = ecovisor.app_names()
    if not names:
        return {}
    database = ecovisor.database
    ledger = ecovisor.ledger
    reads = {}
    for k in tenants:
        name = names[k % len(names)]
        read = reads[name] = {}
        for store in stores.split("+"):
            if store == "ledger":
                account = ledger.account(name)
                read["settlements"] = [dataclasses.asdict(s) for s in account.settlements]
                read["totals"] = [account.energy_wh, account.grid_wh, account.cost_usd]
            else:
                prefix = f"app.{name}."
                read["series"] = {
                    series: [
                        database.series(series).times().tolist(),
                        database.series(series).values().tolist(),
                    ]
                    for series in database.series_names()
                    if series.startswith(prefix)
                }
    return reads


def _build(params, batched, churn=False):
    """One fleet down one path.

    With a ``grid_w`` parameter every battery-free tenant is rebalanced
    to that grid share before the first tick (``build_fleet`` gives
    every tenant an unlimited one), so a small share leaves demand
    unmet and settle serves fractions below 1.
    """
    # Container ids embed a process-global counter; reset it so both
    # captures name identical containers identically (ids appear in
    # snapshots, telemetry series names, and journal payloads).
    reset_container_id_counter()
    build = build_churn_fleet if churn else build_fleet
    fleet = build({**params, "batched": batched})
    if "grid_w" in params:
        ecovisor = fleet.ecovisor
        for name in ecovisor.app_names():
            if ecovisor.ves_for(name).battery is None:
                ecovisor.set_share(name, ShareConfig(grid_power_w=params["grid_w"]))
    return fleet


def fleet_applications(fleet):
    """The built population and every application still registered,
    once each: the workloads whose state ``collect_surfaces`` compares."""
    apps = {app.name: app for app in fleet.applications}
    for app in fleet.engine.applications:
        apps.setdefault(app.name, app)
    return list(apps.values())


def _observe(fleet, reads=None):
    """Snapshot every app's :class:`EnergyState` after each tick.

    Returns the list the observer fills.  With a read plan (see
    ``READ_PLANS``) it also appends ``{"reads": ...}`` after each
    planned tick.
    """
    ecovisor = fleet.ecovisor
    states = []

    def observer(tick):
        states.append(
            {
                name: ecovisor.state_for(name).to_dict()
                for name in ecovisor.app_names()
            }
        )
        if reads is not None and tick.index in reads["at"]:
            orders = reads.get("stores", ["ledger+database"])
            stores = orders[reads["at"].index(tick.index) % len(orders)]
            states.append({"reads": _read(ecovisor, reads["tenants"], stores)})

    fleet.engine.add_observer(observer)
    return states


def _run(params, batched, churn=False, reads=None):
    """Run one fleet down one path; return the fleet and per-tick
    snapshots of every app's :class:`EnergyState`."""
    fleet = _build(params, batched, churn)
    states = _observe(fleet, reads)
    fleet.engine.run(int(params["ticks"]))
    return fleet, states


def _capture(params, batched, churn=False, reads=None):
    """Run one fleet down one path; return every observable surface."""
    fleet, states = _run(params, batched, churn, reads)
    # The two paths really differed: only the production path settles
    # columnar.
    assert fleet.ecovisor.columnar is batched
    return collect_surfaces(fleet.ecovisor, states, fleet_applications(fleet))


def collect_surfaces(ecovisor, states, applications=()):
    """Every observable surface of a finished run, JSON-serializable.

    Shared with :mod:`tests.integration.test_fallback_parity`, which
    builds its own (partially batch-incompatible) fleets but compares
    the same six surfaces.  ``applications`` are the workloads whose
    state is compared; the summary's floats compare as hex, so an
    unfinished job's NaN completion time compares equal.
    """
    ledger = ecovisor.ledger
    accounts = {}
    for name in sorted(ledger.app_names()):
        account = ledger.account(name)
        accounts[name] = {
            "settlements": [
                dataclasses.asdict(s) for s in account.settlements
            ],
            "energy_wh": account.energy_wh,
            "carbon_g": account.carbon_g,
            "cost_usd": account.cost_usd,
            "unmet_wh": account.unmet_wh,
        }

    database = ecovisor.database
    telemetry = {
        name: [
            database.series(name).times().tolist(),
            database.series(name).values().tolist(),
        ]
        for name in database.series_names()
    }

    journal = ecovisor.journal
    journals = {}
    for name in sorted(ledger.app_names()):
        if not journal.has_feed(name):
            continue
        page = journal.read(name)
        journals[name] = {
            "events": [dataclasses.asdict(e) for e in page.events],
            "next_cursor": page.next_cursor,
            "dropped": page.dropped,
        }

    workloads = {
        app.name: {
            "progress_units": app.progress_units,
            "summary": {key: value.hex() for key, value in app.summary().items()},
        }
        for app in applications
    }

    price_signal = ecovisor.price_signal
    return {
        "states": states,
        "accounts": accounts,
        "telemetry": telemetry,
        "journals": journals,
        "signal_histories": {
            "carbon": ecovisor.carbon_service.history(),
            "price": price_signal.history() if price_signal else None,
        },
        "workloads": workloads,
    }


def _digest(capture):
    """SHA-256 over canonical JSON: equal digests == byte-equal floats."""
    return hashlib.sha256(
        json.dumps(capture, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _first_difference(a, b, path="capture"):
    """Recursively locate the first mismatch for a readable assertion."""
    if type(a) is not type(b):
        return f"{path}: {type(a).__name__} != {type(b).__name__}"
    if isinstance(a, dict):
        if a.keys() != b.keys():
            only_a = sorted(set(a) - set(b))
            only_b = sorted(set(b) - set(a))
            return f"{path}: keys differ (columnar-only {only_a}, object-only {only_b})"
        for key in a:
            if a[key] != b[key]:
                return _first_difference(a[key], b[key], f"{path}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return _first_difference(x, y, f"{path}[{i}]")
    elif a != b:
        return f"{path}: {a!r} != {b!r}"
    return None


def _record_failure(params, churn, diff, columnar, objects, reads=None):
    """Persist a reproduction blob + first-difference report to disk.

    CI uploads the directory (plus hypothesis's example database) as
    workflow artifacts when the parity suite fails, so a red run on a
    shared runner is debuggable without re-shrinking locally.  The file
    tag is content-derived: hypothesis re-runs a failing example many
    times while shrinking, and every intermediate example dedupes onto
    its own pair of files (the final, smallest one included).
    """
    out = Path(os.environ.get("PARITY_FAILURE_DIR", "parity-failures"))
    out.mkdir(parents=True, exist_ok=True)
    blob = {
        "test_module": "tests/integration/test_columnar_parity.py",
        "churn": churn,
        "params": params,
        "reads": reads,
        "digest_columnar": _digest(columnar),
        "digest_objects": _digest(objects),
        "reproduce": (
            "_assert_parity(%r, churn=%r, reads=%r)  # or add as @example"
            % (params, churn, reads)
        ),
    }
    tag = hashlib.sha256(
        json.dumps(blob, sort_keys=True).encode()
    ).hexdigest()[:12]
    (out / f"repro-{tag}.json").write_text(
        json.dumps(blob, indent=2, sort_keys=True) + "\n"
    )
    (out / f"first-difference-{tag}.txt").write_text(
        f"params: {params!r}\nchurn: {churn}\nreads: {reads!r}\n"
        f"first difference: {diff}\n"
    )


def _assert_identical(params, churn, columnar, objects, reads=None):
    # The digest compares JSON reprs (float bit patterns); the direct
    # comparison confirms the structures agree too, catching a
    # hypothetical repr collision.
    if _digest(columnar) == _digest(objects) and columnar == objects:
        return
    diff = _first_difference(columnar, objects) or (
        "digests differ but structures compare equal (repr-level difference)"
    )
    _record_failure(params, churn, diff, columnar, objects, reads)
    raise AssertionError(diff)


def _assert_parity(params, churn=False, reads=None):
    try:
        columnar = _capture(params, batched=True, churn=churn, reads=reads)
        objects = _capture(params, batched=False, churn=churn, reads=reads)
    except InsufficientResourcesError:
        # The drawn churn schedule oversubscribed the little cluster —
        # a scenario-capacity limit, not a parity property.  Discard
        # the example (both paths would raise at the same tick).
        assume(False)
    _assert_identical(params, churn, columnar, objects, reads)


class TestColumnarDifferentialParity:
    @settings(max_examples=8, **_SETTINGS)
    @given(params=FLEET_PARAMS)
    @example(params={"apps": 24, "ticks": 50, "seed": 2023, "mix": "balanced"})
    @example(params={"apps": 20, "ticks": 36, "seed": 2023, "mix": "balanced"})
    @example(params={"apps": 3, "ticks": 5, "seed": 0, "mix": "agnostic"})
    def test_static_fleet_surfaces_byte_identical(self, params):
        """Randomized static fleets: all six surfaces, both paths."""
        _assert_parity(params)

    @settings(max_examples=5, **_SETTINGS)
    @given(params=CHURN_PARAMS)
    @example(
        params={
            "apps": 8,
            "ticks": 24,
            "seed": 2023,
            "mix": "balanced",
            "admit_rate": 0.8,
            "evict_rate": 0.25,
        }
    )
    def test_churn_fleet_surfaces_byte_identical(self, params):
        """Admit/evict/set_share churn mid-run: the fleet is laid out
        again and again without perturbing a single byte of any
        surface."""
        _assert_parity(params, churn=True)


class TestRetainedSnapshots:
    """A snapshot kept past its tick keeps its own tick's figures.

    ``_observe`` serializes each snapshot inside the observer, while its
    tick is current.  Here the observer only keeps every live tenant's
    :class:`EnergyState` object, reading no field, and the snapshots are
    serialized after the run: a snapshot that resolved a field from live
    state on first access would show a later tick's battery.
    """

    STATIC = {"apps": 6, "ticks": 240, "seed": 2023, "mix": "balanced"}
    CHURN = {**STATIC, "admit_rate": 0.2, "evict_rate": 0.2}

    @staticmethod
    def _kept(params, batched, churn):
        fleet = _build(params, batched, churn)
        ecovisor = fleet.ecovisor
        kept = []
        fleet.engine.add_observer(
            lambda tick: kept.append(
                {name: ecovisor.state_for(name) for name in ecovisor.app_names()}
            )
        )
        fleet.engine.run(params["ticks"])
        assert ecovisor.columnar is batched
        return {
            "states": [
                {name: state.to_dict() for name, state in states.items()}
                for states in kept
            ]
        }

    @pytest.mark.parametrize("churn", [False, True], ids=["static", "churn"])
    def test_kept_snapshots_equal_reference_path(self, churn):
        params = self.CHURN if churn else self.STATIC
        columnar = self._kept(params, True, churn)
        objects = self._kept(params, False, churn)
        levels = {
            states["fleet-0000"]["battery"]["charge_level_wh"]
            for states in objects["states"]
        }
        assert len(levels) > 1  # the batteries really move
        _assert_identical(params, churn, columnar, objects)


class TestShortfallParity:
    """Served fractions below 1, compared on every surface.

    ``build_fleet`` gives every tenant an unlimited grid share, so every
    fraction settle serves there is 1.0 and a finish phase that ignored
    them would match the reference path.  Here the battery-free tenants
    hold a 0.5 W grid share (``grid_w``, see ``_build``) and the run
    ends before dawn (tick 361 of the seed-2023 trace): a 1-core worker
    draws up to 1.25 W, so its job progresses at a served fraction
    below 1.
    """

    STATIC = {"apps": 9, "ticks": 120, "seed": 2023, "mix": "balanced", "grid_w": 0.5}
    CHURN = {**STATIC, "admit_rate": 0.3, "evict_rate": 0.3}

    @pytest.mark.parametrize("churn", [False, True], ids=["static", "churn"])
    def test_surfaces_byte_identical(self, churn):
        params = self.CHURN if churn else self.STATIC
        columnar = _capture(params, batched=True, churn=churn)
        objects = _capture(params, batched=False, churn=churn)
        _assert_identical(params, churn, columnar, objects)
        short = [
            name
            for name, account in columnar["accounts"].items()
            if account["unmet_wh"] > 0.0
        ]
        assert len(short) >= 3, short
        progress = [w["progress_units"] for w in columnar["workloads"].values()]
        assert sum(p > 0.0 for p in progress) >= 3


def compensated_sum(iterable, /, start=0):
    """Builtin ``sum`` as CPython 3.12 computes it: exact floats are
    added with Neumaier compensation, everything else as before."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            total = total + item
            if type(item) not in (int, bool):
                break
        else:
            return total
    if type(total) is float:
        c = 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    c += (total - t) + item
                else:
                    c += (item - t) + total
                total = t
                continue
            if isinstance(item, int):
                total += float(item)
                continue
            if c and math.isfinite(c):
                total += c
            total = total + item
            break
        else:
            if c and math.isfinite(c):
                total += c
            return total
    for item in items:
        total = total + item
    return total


class TestCompensatedSumParity:
    """Byte parity holds whatever builtin ``sum`` does with floats.

    The columnar kernels add left to right (``np.bincount``, ``+=``
    loops, ``np.add.accumulate``), and the object path's running sums
    go through :func:`repro.core.units.sequential_sum`.  Here builtin
    ``sum`` is swapped for Python 3.12's compensated algorithm on any
    interpreter, so a reference-path sum that still called it would
    round differently and show as a difference: the fleet cases catch
    the plant's battery level, the bare-ecovisor case the per-app
    demand, the attribution and the cluster power, and the last case
    the ML and Spark throughput models.
    """

    STATIC = {"apps": 24, "ticks": 50, "seed": 2023, "mix": "balanced"}
    CHURN = {**STATIC, "apps": 8, "admit_rate": 0.8, "evict_rate": 0.25}

    def test_the_swap_is_compensated(self):
        assert compensated_sum([1e16, 1.0, -1e16] * 3) == 3.0
        assert compensated_sum([1, 2, 3]) == 6
        assert compensated_sum([[1], [2]], []) == [1, 2]

    @pytest.mark.parametrize("churn", [False, True], ids=["static", "churn"])
    def test_surfaces_byte_identical(self, churn, monkeypatch):
        params = self.CHURN if churn else self.STATIC
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        columnar = _capture(params, batched=True, churn=churn)
        objects = _capture(params, batched=False, churn=churn)
        _assert_identical(params, churn, columnar, objects)

    #: Every worker of the fleets above runs at utilization 1.0 (1.25 W),
    #: whose sums round alike either way; these do not.
    UTILS = {
        "a": [(2 * i + 1) / 20 for i in range(10)],
        "b": [(i + 1) / 10 for i in range(10)],
    }

    def test_uneven_container_powers(self, monkeypatch):
        # Per-app demand, per-container attribution (the grid carbon a
        # 3 W solar share leaves) and cluster power over two tenants of
        # ten unequal containers, on the bare ecovisor down both paths.
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        add_up = functools.partial(functools.reduce, operator.add)
        captures = []
        for columnar in (True, False):
            reset_container_id_counter()
            eco = make_ecovisor(num_servers=6)
            eco.columnar = columnar
            for name, utils in self.UTILS.items():
                eco.admit_app(name, ShareConfig(solar_fraction=0.3))
                for u in utils:
                    eco.launch_container(name, 1).set_demand_utilization(u)
            platform = eco.platform
            app = list(platform.app_container_powers("a").values())
            assert compensated_sum(app) != add_up(app, 0)
            every = list(platform.container_powers().values())
            base = platform.baseline_power_w()
            assert compensated_sum(every) + base != add_up(every, 0) + base
            run_ticks(eco, 5)
            captures.append(collect_surfaces(eco, []))
        assert captures[0]["accounts"]["a"]["carbon_g"] > 0.0
        _assert_identical(self.UTILS, False, *captures)

    def test_throughput_models(self, monkeypatch):
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        utils = [0.1] * 10
        total = functools.reduce(operator.add, utils, 0)
        assert compensated_sum(utils) != total
        ml = MLTrainingJob()
        assert ml.throughput_units_per_s(utils) == (
            ml.worker_rate_units_per_s * total * ml._productive_share(10)
        )
        spark = SparkJob()
        assert spark.throughput_units_per_s(utils) == (1.0 * total) / spark._sync_denom(10)


class TestSolarChangeParity:
    """Fleets that publish solar changes, compared on every surface.

    The stock 5 W threshold is scaled by each tenant's solar share, so
    ``build_fleet`` fleets of a few tenants never cross it.  These cases
    lower it where ``_wire`` builds the ecovisor's config and run past
    dawn (tick 361 of the seed-2023 trace), so both paths flag the
    shared tenants on most daylight ticks.
    """

    THRESHOLD_W = 0.02
    STATIC = {"apps": 6, "ticks": 420, "seed": 2023, "mix": "balanced"}
    CHURN = {**STATIC, "admit_rate": 0.3, "evict_rate": 0.3}
    FIELDS = {field.name for field in dataclasses.fields(SolarChangeEvent)}

    @pytest.fixture(autouse=True)
    def _low_threshold(self, monkeypatch):
        monkeypatch.setattr(
            experiment,
            "EcovisorConfig",
            functools.partial(
                EcovisorConfig, solar_change_threshold_w=self.THRESHOLD_W
            ),
        )

    def _assert_solar_parity(self, params, churn):
        columnar = _capture(params, batched=True, churn=churn)
        objects = _capture(params, batched=False, churn=churn)
        _assert_identical(params, churn, columnar, objects)
        solar_changes = [
            event
            for journal in columnar["journals"].values()
            for event in journal["events"]
            if event.keys() == self.FIELDS
        ]
        assert len(solar_changes) >= 1

    def test_static_fleet_publishes_solar_changes(self):
        self._assert_solar_parity(self.STATIC, churn=False)

    def test_churn_fleet_publishes_solar_changes(self):
        self._assert_solar_parity(self.CHURN, churn=True)


class TestForcedFlushParity:
    """Write-back batches of every size, forced by mid-run reads."""

    # Long enough for two battery-empty edges (ticks 163 and 168) to
    # land inside the final write-back batch.
    STATIC = {"apps": 12, "ticks": 240, "seed": 7, "mix": "balanced"}
    STATIC_READS = {"at": [0, 1, 2, 3, 100], "tenants": [0, 5, 9]}
    CHURN = {
        "apps": 8,
        "ticks": 24,
        "seed": 2023,
        "mix": "balanced",
        "admit_rate": 0.8,
        "evict_rate": 0.25,
    }
    CHURN_READS = {"at": [0, 1, 5, 6, 7, 22], "tenants": [1, 4]}
    # One store at a time, then both in either order: records reach the
    # ledger and the database at different ticks.
    SPLIT = {"stores": ["ledger", "database", "ledger", "database+ledger"]}

    @settings(max_examples=5, **_SETTINGS)
    @given(params=FLEET_PARAMS, reads=READ_PLANS)
    @example(params=STATIC, reads=STATIC_READS)
    @example(params=STATIC, reads={**STATIC_READS, **SPLIT})
    def test_static_fleet_surfaces_byte_identical(self, params, reads):
        _assert_parity(params, reads=reads)

    @settings(max_examples=5, **_SETTINGS)
    @given(params=CHURN_PARAMS, reads=READ_PLANS)
    @example(params=CHURN, reads=CHURN_READS)
    @example(params=CHURN, reads={**CHURN_READS, **SPLIT})
    def test_churn_fleet_surfaces_byte_identical(self, params, reads):
        _assert_parity(params, churn=True, reads=reads)

    def test_batches_span_layout_changes_and_battery_edges(self):
        """The committed read plans really exercise the write-back:
        one-record and most-of-the-run batches with container-cache
        rebuilds and battery full/empty edges inside them (static
        fleet), and dense-cache refreshes between batches (churn)."""
        batches, edges = self._batches(self.STATIC, self.STATIC_READS)
        sizes = [len(batch) for batch in batches]
        assert sizes == [1, 1, 1, 1, 97, 139], sizes
        assert any(len({id(r.cont_ids) for r in b}) > 1 for b in batches)
        assert edges and all(
            any(b[0].time_s < e.time_s <= b[-1].time_s for b in batches)
            for e in edges
        )
        batches, _ = self._batches(self.CHURN, self.CHURN_READS, churn=True)
        assert len({id(b[0].names) for b in batches}) > 1

    @staticmethod
    def _batches(params, reads, churn=False):
        """(write-back batches, battery full/empty events) of a columnar
        run under ``reads``, with a final read."""
        fleet = _build(params, batched=True, churn=churn)
        ecovisor = fleet.ecovisor
        batches = []
        write_back = ecovisor.ledger.write_back

        def spy(names, records):
            batches.append(list(records))
            write_back(names, records)

        ecovisor.ledger.write_back = spy
        edges = []
        ecovisor.events.subscribe(BatteryFullEvent, edges.append)
        ecovisor.events.subscribe(BatteryEmptyEvent, edges.append)
        _observe(fleet, reads)
        fleet.engine.run(params["ticks"])
        ecovisor.ledger.app_names()
        return batches, edges

    @staticmethod
    def _assert_toggle_parity(params, churn, chunks, reads=None):
        """Running ``chunks`` of (batched, ticks) is byte-identical to
        the same ticks on the object path throughout.  The switch only
        turns on, so every object-path chunk comes first."""

        def toggled(all_objects):
            fleet = _build(params, batched=not all_objects, churn=churn)
            states = _observe(fleet, reads)
            for batched, ticks in chunks:
                fleet.engine.batched = batched and not all_objects
                fleet.engine.run(ticks)
                assert fleet.ecovisor.columnar is fleet.engine.batched
            return collect_surfaces(fleet.ecovisor, states, fleet_applications(fleet))

        _assert_identical(params, churn, toggled(False), toggled(True), reads)

    def test_object_then_columnar_churn(self):
        """The object path, then columnar, reading in between, is
        byte-identical to the same run on the object path throughout:
        the first columnar refresh seeds every tenant from its objects,
        as it seeds an admission."""
        self._assert_toggle_parity(
            {**self.CHURN, "ticks": 30},
            True,
            [(False, 10), (True, 20)],
            {"at": [3, 9, 10, 17, 25], "tenants": [0, 2, 5]},
        )

    def test_object_then_columnar_static(self):
        """The static twin: no admission or eviction re-lays the fleet
        out after the first columnar refresh, so that refresh alone
        carries the object path's battery, workload and ledger state
        into the columns, the settle kernel's mirrors and the upcall
        plane's groups."""
        self._assert_toggle_parity(
            {**self.STATIC, "ticks": 30}, False, [(False, 10), (True, 20)]
        )

    def test_battery_event_subscriber_turns_own_knobs(self):
        """A subscriber that turns its own tenant's knobs on a battery
        edge: the settle snapshot shows the knobs the tenant settled
        under on both paths, because the object path finalizes each
        tenant's snapshot before it publishes that tenant's events."""

        def capture(batched):
            fleet = _build(self.STATIC, batched)
            ecovisor = fleet.ecovisor
            turned = []

            def on_full(event):
                api = connect(ecovisor, event.app_name)
                battery = ecovisor.ves_for(event.app_name).battery
                api.set_battery_charge_rate(0.0)
                api.set_battery_max_discharge(battery.max_discharge_w / 2)
                turned.append(event)

            def on_empty(event):
                connect(ecovisor, event.app_name).set_battery_charge_rate(5.0)
                turned.append(event)

            ecovisor.events.subscribe(BatteryFullEvent, on_full)
            ecovisor.events.subscribe(BatteryEmptyEvent, on_empty)
            states = _observe(fleet)
            fleet.engine.run(self.STATIC["ticks"])
            assert any(type(e) is BatteryEmptyEvent for e in turned)
            return collect_surfaces(ecovisor, states, fleet_applications(fleet))

        _assert_identical(self.STATIC, False, capture(True), capture(False))


#: Writes a client can make between ticks.  ``FleetArrays.refresh()``
#: derives the layout, solar fractions, solar-change thresholds, grid shares
#: and the battery sub-fleet (capacity, floor, efficiencies, max
#: rates); only admissions and evictions (``admit``, ``evict``) and
#: staged share changes (``add_battery``, ``drop_battery``, which also
#: move the solar fraction, threshold and grid share) change any of
#: them.  The battery knobs, power caps, scaling and core resizes reach
#: the next settle through write epochs or the container cache's key, so
#: a step must not depend on a re-layout for those.
WRITE_KINDS = (
    "charge_rate",
    "max_discharge",
    "powercap",
    "scale",
    "cores",
    "add_battery",
    "drop_battery",
    "admit",
    "evict",
)

WRITE_PLANS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=35),  # after this tick
        st.sampled_from(WRITE_KINDS),
        st.integers(min_value=0, max_value=255),  # target tenant
        st.floats(min_value=0.0, max_value=60.0),  # watts, or a count
    ),
    max_size=12,
)


def _apply_write(fleet, tick_index, kind, target, value, serial):
    """Make one drawn write after tick ``tick_index``; returns its outcome.

    Targets are picked from the live tenants by index, so all three
    runs of a plan pick the same tenant as long as they agree.  A
    rejected write (an oversubscribed share, a full cluster, a refused
    migration) is part of the outcome and must be rejected alike.
    """
    engine, ecovisor = fleet.engine, fleet.ecovisor
    names = ecovisor.app_names()
    holders = [n for n in names if ecovisor.ves_for(n).battery is not None]
    settled = [n for n in names if ecovisor.pending_share(n) is None]
    pools = {
        "charge_rate": holders,
        "max_discharge": holders,
        "add_battery": [n for n in settled if n not in holders],
        "drop_battery": [n for n in settled if n in holders],
    }
    pool = pools.get(kind, names)
    if kind == "admit":
        name = f"step-{serial:03d}"
    elif pool:
        name = pool[target % len(pool)]
    else:
        return [kind, None, "skipped"]
    api = connect(ecovisor, name) if ecovisor.has_app(name) else None
    try:
        if kind == "charge_rate":
            api.set_battery_charge_rate(value)
        elif kind == "max_discharge":
            api.set_battery_max_discharge(value)
        elif kind in ("powercap", "cores"):
            containers = ecovisor.containers_for(name)
            if not containers:
                return [kind, name, "skipped"]
            cid = containers[target % len(containers)].id
            if kind == "powercap":
                api.set_container_powercap(cid, value if value >= 1.0 else None)
            else:
                api.set_container_cores(cid, 1.0 + int(value) % 3)
        elif kind == "scale":
            api.scale_to(int(value) % 3, 1.0)
        elif kind == "add_battery":
            ecovisor.set_share(
                name,
                ShareConfig(
                    solar_fraction=0.01, battery_fraction=0.01, grid_power_w=math.inf
                ),
            )
        elif kind == "drop_battery":
            ecovisor.set_share(name, ShareConfig(grid_power_w=value + 20.0))
        elif kind == "admit":
            engine.schedule_admission(
                tick_index + 1,
                MLTrainingJob(name=name, total_work_units=600.0 + 60.0 * value),
                ShareConfig(grid_power_w=math.inf),
                CarbonAgnosticPolicy(workers=1),
            )
        else:
            engine.schedule_eviction(tick_index + 1, name)
    except EcovisorError as exc:
        return [kind, name, f"{type(exc).__name__}: {exc}"]
    return [kind, name, "ok"]


def _capture_with_writes(params, mode, plan, churn=False):
    """Every surface of one run making ``plan``'s writes between ticks.

    ``mode`` is ``"stepwise"`` (production path, one ``run(1)`` per
    tick, writes between the calls), ``"run"`` (production path, one
    ``run(N)``, writes from an observer) or ``"objects"`` (the same on
    the reference path).  The ledger is read once mid-run.
    """
    ticks = int(params["ticks"])
    fleet = _build(params, batched=mode != "objects", churn=churn)
    states = _observe(fleet, {"at": [ticks // 2], "tenants": [0, 3]})
    due = {}
    for write in plan:
        due.setdefault(write[0], []).append(write)
    outcomes = []

    def write_after(tick_index):
        for _, kind, target, value in due.get(tick_index, ()):
            outcomes.append(
                _apply_write(fleet, tick_index, kind, target, value, len(outcomes))
            )

    try:
        if mode == "stepwise":
            for tick_index in range(ticks):
                assert fleet.engine.run(1) == 1
                write_after(tick_index)
        else:
            fleet.engine.add_observer(lambda tick: write_after(tick.index))
            fleet.engine.run(ticks)
    except InsufficientResourcesError:
        # A policy's scale-up found the little cluster full: a capacity
        # limit of the drawn plan, not a parity property.
        assume(False)
    capture = collect_surfaces(fleet.ecovisor, states, fleet_applications(fleet))
    capture["writes"] = outcomes
    return capture


def _assert_stepwise_parity(params, plan, churn=False):
    stepwise = _capture_with_writes(params, "stepwise", plan, churn)
    for mode in ("run", "objects"):
        other = _capture_with_writes(params, mode, plan, churn)
        _assert_identical(params, churn, stepwise, other, {"writes": plan})
    return stepwise


#: Committed plans that make every kind of write at least once.  The
#: power cap binds: 1.0 W (the smallest value ``_apply_write`` installs)
#: holds fleet-0002's 1-core worker below its demand, since such a
#: worker draws up to 1.25 W (0.3375 W idle plus a 0.9125 W range).
STEPWISE_STATIC = {"apps": 12, "ticks": 30, "seed": 2023, "mix": "balanced"}
STEPWISE_CHURN = {
    "apps": 8,
    "ticks": 24,
    "seed": 2023,
    "mix": "balanced",
    "admit_rate": 0.8,
    "evict_rate": 0.25,
}
STEPWISE_PLAN = [
    (1, "charge_rate", 0, 25.0),
    (2, "max_discharge", 1, 3.5),
    (3, "powercap", 2, 1.0),
    (3, "scale", 4, 2.0),
    (5, "add_battery", 1, 0.0),
    (5, "drop_battery", 0, 10.0),
    (6, "admit", 0, 4.0),
    (6, "evict", 5, 0.0),
    (7, "cores", 2, 2.0),
    (8, "charge_rate", 1, 40.0),
    (9, "scale", 3, 0.0),
    (12, "add_battery", 2, 0.0),
    (12, "admit", 0, 1.0),
    (13, "drop_battery", 3, 5.0),
    (16, "evict", 0, 0.0),
]


class TestStepwiseParity:
    """``run(1)`` per tick with writes between steps == ``run(N)``."""

    @settings(max_examples=5, **_SETTINGS)
    @given(params=FLEET_PARAMS, plan=WRITE_PLANS)
    @example(params=STEPWISE_STATIC, plan=STEPWISE_PLAN)
    def test_static_fleet_surfaces_byte_identical(self, params, plan):
        _assert_stepwise_parity(params, plan)

    @settings(max_examples=5, **_SETTINGS)
    @given(params=CHURN_PARAMS, plan=WRITE_PLANS)
    @example(params=STEPWISE_CHURN, plan=STEPWISE_PLAN)
    def test_churn_fleet_surfaces_byte_identical(self, params, plan):
        _assert_stepwise_parity(params, plan, churn=True)

    def test_committed_plan_makes_every_write(self):
        """The committed examples drive every path that changes what
        ``refresh()`` derives, and every per-settle knob."""
        for params, churn in ((STEPWISE_STATIC, False), (STEPWISE_CHURN, True)):
            outcomes = _capture_with_writes(params, "stepwise", STEPWISE_PLAN, churn)
            made = {kind for kind, _, result in outcomes["writes"] if result == "ok"}
            assert made == set(WRITE_KINDS), (churn, outcomes["writes"])


class TestStepwiseLayout:
    """A step re-lays the fleet out only when the fleet changed."""

    @staticmethod
    def _scraped(ecovisor, name):
        return sum(sample[2] for sample in ecovisor.metrics.get(name).samples())

    def test_static_steps_keep_layout_and_buffer(self):
        fleet = _build({"apps": 50, "ticks": 301, "seed": 2023, "mix": "balanced"}, True)
        engine, ecovisor = fleet.engine, fleet.ecovisor
        engine.run(1)
        epoch = ecovisor._fleet.epoch
        flushed = self._scraped(ecovisor, "telemetry_flush_records_total")
        for _ in range(300):
            engine.run(1)
        assert ecovisor._fleet.epoch == epoch
        assert self._scraped(ecovisor, "telemetry_flush_records_total") == flushed
        assert self._scraped(ecovisor, "telemetry_pending_records") == 301
        # The first read writes every stepwise record back in one batch.
        batches = []
        write_back = ecovisor.ledger.write_back

        def spy(names, records):
            batches.append(len(records))
            write_back(names, records)

        ecovisor.ledger.write_back = spy
        assert ecovisor.ledger.account("fleet-0000").settlements
        assert batches == [301]
        assert self._scraped(ecovisor, "ledger_write_back_records_total") == 301
        # A ledger read leaves the database side waiting; the first
        # database read stacks all of it.
        assert self._scraped(ecovisor, "telemetry_pending_records") == 301
        assert ecovisor.database.series("app.fleet-0000.power_w")
        assert self._scraped(ecovisor, "telemetry_flush_records_total") == 301
        assert self._scraped(ecovisor, "telemetry_pending_records") == 0

    def test_changes_between_steps_cost_one_refresh(self):
        fleet = _build(STEPWISE_STATIC, batched=True)
        engine, ecovisor = fleet.engine, fleet.ecovisor

        def refreshes():
            before = ecovisor._fleet.epoch
            assert engine.run(1) == 1
            return ecovisor._fleet.epoch - before

        engine.run(1)
        assert ecovisor._fleet.epoch == 1  # a new fleet starts dirty
        assert refreshes() == 0
        holder, other, evicted = "fleet-0000", "fleet-0001", "fleet-0002"
        ecovisor.set_share(holder, ShareConfig(grid_power_w=50.0))
        assert refreshes() == 1
        assert refreshes() == 0
        tick = engine.clock.tick_index
        engine.schedule_admission(
            tick,
            MLTrainingJob(name="step-new", total_work_units=600.0),
            ShareConfig(grid_power_w=math.inf),
            CarbonAgnosticPolicy(workers=1),
        )
        engine.schedule_eviction(tick, evicted)
        ecovisor.set_share(
            other,
            ShareConfig(
                solar_fraction=0.01, battery_fraction=0.01, grid_power_w=math.inf
            ),
        )
        assert refreshes() == 1
        assert refreshes() == 0
        ecovisor.evict_app("step-new")
        assert refreshes() == 1
        assert refreshes() == 0


#: Object-side writes between ticks that the settle kernel's mirrors
#: (battery state, knob columns, container powers) must pick up.
OBJECT_WRITES = {
    "battery_charge": lambda vb, c, eco: vb.battery.charge(5.0, 60.0),
    "battery_discharge": lambda vb, c, eco: vb.battery.discharge(5.0, 60.0),
    "set_level": lambda vb, c, eco: vb.battery.set_level_wh(vb.battery.capacity_wh),
    "charge_for_tick": lambda vb, c, eco: vb.charge_for_tick(4.0, 60.0),
    "discharge_for_tick": lambda vb, c, eco: vb.discharge_for_tick(4.0, 60.0),
    "note_tick_charge": lambda vb, c, eco: vb.note_tick_charge(7.0),
    "set_charge_rate": lambda vb, c, eco: vb.set_charge_rate(9.0),
    "set_max_discharge": lambda vb, c, eco: vb.set_max_discharge(0.5),
    "power_cap": lambda vb, c, eco: eco.platform.set_power_cap(c.id, 1.0),
    "stop": lambda vb, c, eco: eco.stop_container(c.app_name, c.id),
}


class TestSettleMirrors:
    """The settle kernel keeps battery state, knobs and container powers
    in arrays between ticks; a write through the objects between two
    ``run`` calls must reach the next settle exactly as on the object
    path."""

    PARAMS = {"apps": 9, "ticks": 12, "seed": 2023, "mix": "balanced"}

    def _capture(self, batched, write):
        fleet = _build(self.PARAMS, batched)
        ecovisor = fleet.ecovisor
        states = _observe(fleet)
        fleet.engine.run(6)
        holder = "fleet-0003"
        vb = ecovisor.ves_for(holder).battery
        container = ecovisor.containers_for(holder)[0]
        OBJECT_WRITES[write](vb, container, ecovisor)
        fleet.engine.run(6)
        return collect_surfaces(ecovisor, states, fleet_applications(fleet))

    @pytest.mark.parametrize("write", sorted(OBJECT_WRITES))
    def test_object_write_between_runs(self, write):
        _assert_identical(
            self.PARAMS, False, self._capture(True, write), self._capture(False, write)
        )


def _solar_fleet(batched):
    """Six tenants, three with a solar share, under a solar-change
    threshold low enough that every daylight tick flags them (the stock
    5 W threshold, scaled by the share, flags only fleets of hundreds)."""
    reset_container_id_counter()
    plant = PhysicalEnergySystem(
        grid=GridConnection(),
        battery=Battery(BatteryConfig(capacity_wh=60.0)),
        solar=SolarArrayEmulator(SolarConfig(peak_power_w=50.0), SolarTrace(days=1, seed=7)),
    )
    carbon = CarbonIntensityService(
        CarbonServiceConfig(region="caiso"), trace=make_region_trace("caiso", days=1, seed=7)
    )
    platform = ContainerOrchestrationPlatform(ClusterConfig(num_servers=6))
    ecovisor = Ecovisor(
        plant, platform, carbon, EcovisorConfig(solar_change_threshold_w=0.05)
    )
    engine = SimulationEngine(ecovisor, SimulationClock(60.0), batched=batched)
    for i in range(6):
        share = (
            ShareConfig(solar_fraction=0.3, battery_fraction=0.3, grid_power_w=math.inf)
            if i % 2 == 0
            else ShareConfig(grid_power_w=math.inf)
        )
        engine.add_application(
            MLTrainingJob(name=f"solar-{i}", total_work_units=1e6),
            share,
            CarbonAgnosticPolicy(workers=1),
        )
    return engine


class TestLazySolarEvents:
    """Solar changes become events only for a subscriber, and the
    journal cannot tell."""

    TICKS = 420  # past dawn

    def _run(self, batched, subscribe):
        engine = _solar_fleet(batched)
        ecovisor = engine.ecovisor
        received = []
        if subscribe:
            ecovisor.signal_bus_for("solar-2").on(SolarChangeEvent, received.append)
        engine.run(self.TICKS)
        journals = collect_surfaces(ecovisor, [])["journals"]
        return journals, received, ecovisor.events.published_count(SolarChangeEvent)

    def test_subscriber_sees_the_same_events_and_journal(self):
        quiet = self._run(True, subscribe=False)
        heard = self._run(True, subscribe=True)
        reference = self._run(False, subscribe=True)
        assert len(heard[1]) > 10 and heard[1] == reference[1]
        assert quiet[0] == heard[0] == reference[0]
        assert quiet[2] == heard[2] == reference[2] > len(heard[1])
        journaled = [e for e in quiet[0]["solar-4"]["events"] if "current_w" in e]
        assert len(journaled) > 10


class TestFleetDeterminism:
    def test_metrics_identical_across_modes(self):
        params = {"apps": 16, "ticks": 30, "seed": 7, "mix": "carbon"}
        assert run_fleet({**params, "batched": True}) == run_fleet(
            {**params, "batched": False}
        )

    def test_root_seed_from_config_digest_only(self):
        base = {"apps": 10, "ticks": 20, "seed": 3, "mix": "balanced"}
        assert fleet_root_seed(base) == fleet_root_seed({**base, "batched": False})
        assert fleet_root_seed(base) != fleet_root_seed({**base, "seed": 4})

    def test_rebuild_is_bit_identical(self):
        params = {"apps": 10, "ticks": 25, "seed": 11, "mix": "balanced"}
        assert run_fleet(dict(params)) == run_fleet(dict(params))


class TestHarnessSensitivity:
    """The harness itself must be able to see a difference."""

    def test_digest_differs_across_seeds(self):
        base = {"apps": 6, "ticks": 8, "seed": 1, "mix": "balanced"}
        a = _capture(base, batched=True)
        b = _capture({**base, "seed": 2}, batched=True)
        assert _digest(a) != _digest(b)

    def test_first_difference_locates_field(self):
        a = {"states": [{"app": {"x": 1.0}}]}
        b = {"states": [{"app": {"x": 1.5}}]}
        message = _first_difference(a, b)
        assert "states" in message and "'x'" in message and "1.5" in message

    def test_failure_recorder_writes_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PARITY_FAILURE_DIR", str(tmp_path / "pf"))
        a = {"states": [{"app": {"x": 1.0}}]}
        b = {"states": [{"app": {"x": 1.5}}]}
        _record_failure({"apps": 3}, False, _first_difference(a, b), a, b)
        files = sorted(p.name for p in (tmp_path / "pf").iterdir())
        assert len(files) == 2
        repro = next(f for f in files if f.startswith("repro-"))
        report = next(f for f in files if f.startswith("first-difference-"))
        blob = json.loads((tmp_path / "pf" / repro).read_text())
        assert blob["params"] == {"apps": 3}
        assert blob["digest_columnar"] != blob["digest_objects"]
        assert "1.5" in (tmp_path / "pf" / report).read_text()
