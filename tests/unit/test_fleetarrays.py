"""FleetArrays' dense layout, snapshot columns, and cache fallbacks.

The columnar kernel's semantic parity is pinned by
:mod:`tests.integration.test_columnar_parity`; this module covers the
structural invariants of the struct-of-arrays store itself:

- the per-tenant columns are laid out densely in registration order,
- every column a :class:`~repro.core.fleetarrays.FleetSnapshot` holds
  is read-only, and a re-layout carries each surviving tenant's ledger
  totals over bit for bit,
- every change of the container cache's key (a launch, a stop, a core
  resize) builds it once, equal to a fresh build,
- a staged ``set_share`` swaps the dense battery sub-fleet caches at
  the next tick boundary, and
- a buffered tick record holds only ndarrays and the layout objects
  settle shares between ticks, nothing the garbage collector tracks.
"""

import gc

import numpy as np
import pytest

from repro.cluster.container import Container, reset_container_id_counter
from repro.cluster.cop import ContainerOrchestrationPlatform
from repro.core.config import ClusterConfig, ShareConfig
from repro.core.events import TickEvent
from repro.core.fleetarrays import _COLUMNS, FleetArrays, _ContainerCache, _TickRecord
from repro.sim.fleet import build_churn_fleet, build_fleet


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


class TestGrowth:
    def test_fleet_larger_than_initial_capacity_runs_columnar(self):
        """A 70-tenant fleet runs columnar over a dense layout: each
        tenant's layout index is its registration position."""
        fleet = _small_fleet(apps=70, ticks=3)
        engine, ecovisor = fleet.engine, fleet.ecovisor
        engine.run(3)
        assert ecovisor.columnar
        store = ecovisor._fleet
        apps = list(ecovisor._apps.values())
        assert len(apps) == 70
        assert [app.snap_index for app in apps] == list(range(70))
        assert all(app.snap_epoch == store.epoch for app in apps)
        assert store.names == [app.name for app in apps]
        for column in _COLUMNS:
            assert getattr(store, column).shape == (70,), column


class TestDenseLayout:
    """Snapshots hold the phase's columns read-only, and a re-layout
    carries every surviving tenant's figures over exactly."""

    SNAPSHOT_COLUMNS = (
        "solar",
        "grid",
        "tot_e",
        "tot_c",
        "tot_cost",
        "knob_target",
        "knob_maxdis",
    )

    @pytest.mark.parametrize("phase", ["begin", "settle"])
    def test_snapshot_columns_are_read_only(self, phase):
        fleet = _small_fleet()
        ecovisor = fleet.ecovisor
        snaps = []
        if phase == "begin":
            # TickEvent publishes after the begin-phase snapshot is built.
            ecovisor.events.subscribe(
                TickEvent, lambda event: snaps.append(ecovisor._fleet.current_snap)
            )
        else:
            fleet.engine.add_observer(
                lambda tick: snaps.append(ecovisor._fleet.current_snap)
            )
        fleet.engine.run(3)
        assert len(snaps) == 3 and snaps[-1].settled is (phase == "settle")
        for snap in snaps:
            for column in self.SNAPSHOT_COLUMNS:
                array = getattr(snap, column)
                assert len(array) == len(snap.names), column
                with pytest.raises(ValueError):
                    array[0] = 1.0

    def test_settled_totals_equal_ledger_after_every_churn_tick(self):
        reset_container_id_counter()
        fleet = build_churn_fleet(
            {
                "apps": 8,
                "ticks": 60,
                "seed": 2023,
                "mix": "balanced",
                "admit_rate": 0.3,
                "evict_rate": 0.3,
            }
        )
        ecovisor = fleet.ecovisor
        compared = []

        def observer(tick):
            for name in ecovisor.app_names():
                state = ecovisor.state_for(name)
                account = ecovisor.ledger.account(name)
                assert state.settled and state.tick_index == tick.index
                assert state.total_energy_wh.hex() == account.energy_wh.hex(), name
                assert state.total_carbon_g.hex() == account.carbon_g.hex(), name
                assert state.total_cost_usd.hex() == account.cost_usd.hex(), name
                compared.append(name)

        fleet.engine.add_observer(observer)
        fleet.engine.run(60)
        assert ecovisor.columnar
        # Tenants came and went, so the layout was taken many times and
        # most comparisons read figures carried over from earlier ones.
        assert len(fleet.engine.evicted_accounts) >= 5
        assert ecovisor._fleet.epoch >= 10
        assert len(compared) > 60 * 8


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
