"""FleetArrays row lifecycle, array identity, and cache fallbacks.

The columnar kernel's semantic parity is pinned by
:mod:`tests.integration.test_columnar_parity`; this module covers the
structural invariants of the struct-of-arrays store itself:

- row acquisition/release is LIFO, so an evicted tenant's row is the
  next admission's row (cache-hot reuse),
- growth past :data:`~repro.core.fleetarrays.INITIAL_CAPACITY` doubles
  in place and keeps every array's identity,
- every change of the container cache's key (a launch, a stop, a core
  resize) builds it once, equal to a fresh build,
- a staged ``set_share`` swaps the dense battery sub-fleet caches at
  the next tick boundary, and
- ticks past the primed signal-cache horizon fall back to live
  sampling with identical results (mirroring
  :mod:`tests.unit.test_tracecache`'s offset-miss rule at fleet level),
- a buffered tick record holds only ndarrays and the layout objects
  settle shares between ticks, nothing the garbage collector tracks.
"""

import gc

import numpy as np
import pytest

from repro.cluster.container import Container, reset_container_id_counter
from repro.cluster.cop import ContainerOrchestrationPlatform
from repro.core.config import ClusterConfig, ShareConfig
from repro.core.fleetarrays import (
    INITIAL_CAPACITY,
    FleetArrays,
    _ContainerCache,
    _TickRecord,
)
from repro.sim.fleet import build_fleet


def _small_fleet(apps=6, ticks=12, batched=True, seed=2023):
    reset_container_id_counter()
    return build_fleet(
        {
            "apps": apps,
            "ticks": ticks,
            "seed": seed,
            "mix": "balanced",
            "batched": batched,
        }
    )


class TestRowLifecycle:
    def test_rows_acquire_in_ascending_order(self):
        fleet = FleetArrays(capacity=4)
        assert [fleet.acquire_row() for _ in range(4)] == [0, 1, 2, 3]

    def test_release_then_acquire_is_lifo(self):
        fleet = FleetArrays(capacity=8)
        rows = [fleet.acquire_row() for _ in range(5)]
        fleet.release_row(rows[1])
        fleet.release_row(rows[3])
        # The hottest (most recently released) row comes back first.
        assert fleet.acquire_row() == rows[3]
        assert fleet.acquire_row() == rows[1]
        # Exhausted the free list's recycled rows; fresh rows follow.
        assert fleet.acquire_row() == 5

    def test_lifecycle_counters_track_acquire_release_reuse(self):
        fleet = FleetArrays(capacity=8)
        rows = [fleet.acquire_row() for _ in range(3)]
        assert fleet.rows_acquired == 3
        assert fleet.rows_reused == 0
        fleet.release_row(rows[2])
        assert fleet.rows_released == 1
        fleet.acquire_row()
        assert fleet.rows_acquired == 4
        assert fleet.rows_reused == 1

    def test_grow_counter_increments_on_doubling(self):
        fleet = FleetArrays(capacity=2)
        for _ in range(3):
            fleet.acquire_row()
        assert fleet.grow_count == 1
        assert fleet.capacity == 4

    def test_evicted_tenant_row_goes_to_next_admission(self):
        fleet = _small_fleet()
        engine, ecovisor = fleet.engine, fleet.ecovisor
        engine.run(3)
        victim = ecovisor.app_names()[2]
        victim_row = ecovisor._apps[victim].row
        assert victim_row >= 0
        ecovisor.evict_app(victim)
        assert ecovisor._apps == {
            n: a for n, a in ecovisor._apps.items() if n != victim
        }
        from repro.policies import CarbonAgnosticPolicy
        from repro.workloads.mltrain import MLTrainingJob

        engine.add_application(
            MLTrainingJob(name="newcomer", total_work_units=100.0),
            ShareConfig(grid_power_w=float("inf")),
            CarbonAgnosticPolicy(workers=1),
        )
        engine.run(1)
        assert ecovisor._apps["newcomer"].row == victim_row


class TestGrowth:
    def test_growth_doubles_and_keeps_array_identity(self):
        fleet = FleetArrays()
        assert fleet.capacity == INITIAL_CAPACITY
        arrays = (
            fleet.solar_w,
            fleet.grid_w,
            fleet.prev_solar,
            fleet.tot_e,
            fleet.tot_c,
            fleet.tot_cost,
        )
        for _ in range(INITIAL_CAPACITY):
            fleet.acquire_row()
        fleet.solar_w[:] = np.arange(INITIAL_CAPACITY, dtype=float)
        fleet.tot_e[:] = 7.5
        overflow = fleet.acquire_row()
        assert overflow == INITIAL_CAPACITY
        assert fleet.capacity == 2 * INITIAL_CAPACITY
        for before, after in zip(
            arrays,
            (
                fleet.solar_w,
                fleet.grid_w,
                fleet.prev_solar,
                fleet.tot_e,
                fleet.tot_c,
                fleet.tot_cost,
            ),
        ):
            # ndarray.resize grows in place: same object, new capacity.
            assert before is after
            assert len(after) == 2 * INITIAL_CAPACITY
        assert fleet.solar_w[:INITIAL_CAPACITY].tolist() == [
            float(i) for i in range(INITIAL_CAPACITY)
        ]
        assert np.all(fleet.tot_e[:INITIAL_CAPACITY] == 7.5)
        assert np.all(fleet.solar_w[INITIAL_CAPACITY:] == 0.0)

    def test_fleet_larger_than_initial_capacity_runs_columnar(self):
        fleet = _small_fleet(apps=INITIAL_CAPACITY + 6, ticks=3)
        engine, ecovisor = fleet.engine, fleet.ecovisor
        engine.run(3)
        store = ecovisor._fleet
        assert store.capacity >= INITIAL_CAPACITY + 6
        rows = [app.row for app in ecovisor._apps.values()]
        assert len(set(rows)) == len(rows)
        assert max(rows) >= INITIAL_CAPACITY


def _assert_cache_equal(a, b):
    """Field-by-field equality of two `_ContainerCache` builds."""
    assert a.key == b.key
    assert a.ids == b.ids
    assert len(a.clist) == len(b.clist)
    for x, y in zip(a.clist, b.clist):
        assert x is y
    np.testing.assert_array_equal(a.cf, b.cf)
    np.testing.assert_array_equal(a.cf_idle, b.cf_idle)
    assert a.cpu_range == b.cpu_range
    assert a.gpu_range == b.gpu_range
    np.testing.assert_array_equal(a.gpu_mask, b.gpu_mask)
    assert a.positions == b.positions
    assert a.cont_ids == b.cont_ids
    assert a.baseline_w == b.baseline_w
    np.testing.assert_array_equal(a.powers(), b.powers())


class TestContainerCacheExtension:
    """How the container cache follows the platform's population.

    Every change of its key — a launch, a stop, a core resize — builds
    the cache once, from scratch, equal field by field to a fresh build;
    an unchanged key reuses it.
    """

    def _platform(self):
        reset_container_id_counter()
        platform = ContainerOrchestrationPlatform(ClusterConfig(num_servers=4))
        platform.launch_container("alpha", 1.0)
        platform.launch_container("beta", 2.0)
        platform.launch_container("alpha", 1.0, role="worker")
        return platform

    @staticmethod
    def _count_builds(monkeypatch):
        rebuilds = []
        original = _ContainerCache.__init__

        def counting(self, *args, **kwargs):
            rebuilds.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(_ContainerCache, "__init__", counting)
        return rebuilds

    @pytest.mark.parametrize("change", ["launch", "resize"])
    def test_change_builds_once(self, monkeypatch, change):
        platform = self._platform()
        fleet = FleetArrays()
        first = fleet.container_cache(platform)
        rebuilds = self._count_builds(monkeypatch)
        assert fleet.container_cache(platform) is first  # key unchanged
        if change == "launch":
            platform.launch_container("gamma", 1.0)
        else:
            platform.set_container_cores(first.clist[1].id, 3.0)
        second = fleet.container_cache(platform)
        assert rebuilds == [1]
        assert second.key == (platform.version, Container._mutation_epoch)
        assert fleet.container_cache(platform) is second
        monkeypatch.undo()
        _assert_cache_equal(second, _ContainerCache(platform, second.key))

    def test_stop_forces_full_rebuild(self, monkeypatch):
        platform = self._platform()
        fleet = FleetArrays()
        first = fleet.container_cache(platform)
        platform.stop_container(first.clist[0].id)  # bumps the epoch
        rebuilds = self._count_builds(monkeypatch)
        second = fleet.container_cache(platform)
        assert rebuilds == [1]
        assert len(second.clist) == len(first.clist) - 1


class TestSetShareSwap:
    def test_staged_share_swaps_battery_caches_at_tick_boundary(self):
        fleet = _small_fleet()
        engine, ecovisor = fleet.engine, fleet.ecovisor
        engine.run(2)
        store = ecovisor._fleet
        # Pick a grid-only tenant (every third tenant holds the plant
        # share, so index 1 does not).
        name = ecovisor.app_names()[1]
        app = ecovisor._apps[name]
        assert app.ves.battery is None
        assert name not in [a.name for _, a in store.batt_apps]

        ecovisor.set_share(
            name,
            ShareConfig(
                solar_fraction=0.05,
                battery_fraction=0.05,
                grid_power_w=float("inf"),
            ),
        )
        # Mid-tick: staged only — the dense caches still describe the
        # old shares until the next begin phase refreshes them.
        assert ecovisor.pending_share(name) is not None
        assert app.ves.battery is None
        epoch_before = store.epoch

        engine.run(1)
        assert ecovisor.pending_share(name) is None
        assert app.ves.battery is not None
        assert store.epoch > epoch_before
        batt_names = [a.name for _, a in store.batt_apps]
        assert name in batt_names
        i = store.names.index(name)
        assert store.frac_solar[i] == 0.05
        assert store.has_solar[i]
        # The battery sub-fleet caches swapped in the new VirtualBattery.
        assert any(vb is app.ves.battery for vb in store.batt_vbs)

    def test_share_drop_removes_battery_row(self):
        fleet = _small_fleet()
        engine, ecovisor = fleet.engine, fleet.ecovisor
        engine.run(2)
        store = ecovisor._fleet
        name = ecovisor.app_names()[0]  # stride tenant: holds a share
        app = ecovisor._apps[name]
        assert app.ves.battery is not None
        ecovisor.set_share(name, ShareConfig(grid_power_w=float("inf")))
        engine.run(1)
        assert app.ves.battery is None
        assert name not in [a.name for _, a in store.batt_apps]


class TestPastHorizonFallback:
    def test_ticks_past_primed_horizon_fall_back_to_live_sampling(self):
        """Mirror of test_tracecache's offset-miss rule at fleet level:
        a signal cache covering only half the run must not change one
        byte of the telemetry — uncovered ticks sample live."""
        ticks = 12
        reference = _small_fleet(ticks=ticks)
        reference.engine.run(ticks)

        truncated = _small_fleet(ticks=ticks)
        ecovisor = truncated.engine._ecovisor
        original = ecovisor.prime_signal_cache

        def half_prime(start_index, times):
            original(start_index, times[: len(times) // 2])

        ecovisor.prime_signal_cache = half_prime
        truncated.engine.run(ticks)
        # The cache really was short: the final tick missed it.
        assert (
            ecovisor._signal_cache.offset_for(ticks - 1, (ticks - 1) * 60.0)
            is None
        )

        db_a = reference.ecovisor.database
        db_b = truncated.ecovisor.database
        assert db_a.series_names() == db_b.series_names()
        for series in db_a.series_names():
            assert (
                db_a.series(series).values().tolist()
                == db_b.series(series).values().tolist()
            ), series


class TestGcFreeRecords:
    #: Record slots holding layout objects settle shares between ticks.
    SHARED = {"names", "counts", "cont_ids", "ids_flat", "batt_idx"}
    PER_TENANT = (
        "demand_w",
        "demand_wh",
        "served",
        "unmet",
        "solar_avail",
        "solar_used",
        "s2b",
        "curtailed",
        "battery_wh",
        "grid_load",
        "g2b",
        "carbon_g",
        "cost",
        "last_grid",
    )

    def test_settled_record_is_ndarrays_and_shared_layout(self):
        fleet = _small_fleet(apps=8)
        fleet.engine.run(6)
        store = fleet.ecovisor._fleet
        records = store.pending
        assert len(records) == 6
        record = records[-1]
        n = len(store.names)
        assert store.batt_apps and len(record.cont_ids)
        for slot in self.PER_TENANT:
            value = getattr(record, slot)
            assert isinstance(value, np.ndarray) and value.shape == (n,), slot
        m = len(store.batt_idx)
        for slot in ("batt_soc", "batt_level", "batt_power"):
            assert getattr(record, slot).shape == (m,), slot
        assert record.cont_powers.shape == (len(record.cont_ids),)
        assert record.cont_carbon.shape == (len(record.ids_flat),)
        # Shared, not copied: the same objects settle reuses.
        assert record.names is store.names
        assert record.batt_idx is store.batt_idx
        assert record.cont_ids is store._cc.ids
        counts, _, _, ids_flat = store._plan
        assert record.counts is counts and record.ids_flat is ids_flat
        for slot in _TickRecord.__slots__:
            if slot not in self.SHARED:
                assert not gc.is_tracked(getattr(record, slot)), slot

    def test_journal_entries_untracked_after_one_collection(self):
        fleet = _small_fleet(apps=8)
        fleet.engine.run(40)
        gc.collect()
        feeds = fleet.ecovisor.journal._feeds.values()
        entries = [entry for feed in feeds for entry in feed.entries]
        assert len(entries) > len(feeds)
        assert not any(gc.is_tracked(entry) for entry in entries)
