"""FleetArrays' dense layout, snapshot columns, and cache fallbacks.

The columnar kernel's semantic parity is pinned by
:mod:`tests.integration.test_columnar_parity`; this module covers the
structural invariants of the struct-of-arrays store itself:

- the per-tenant columns are laid out densely in registration order,
- every column a :class:`~repro.core.fleetarrays.FleetSnapshot` holds
  is read-only, and a re-layout carries each surviving tenant's ledger
  totals over bit for bit,
- every change of the container cache's key (its platform's version,
  which a launch, a stop or a core resize there moves) builds it once,
  equal to a fresh build, and the gather plan over it walks each
  tenant's containers in launch order,
- settle's served fractions are one read-only mapping type on both
  engine paths, with equal items every tick,
- the columnar switch only turns on: turning a columnar ecovisor off
  raises and leaves its fleet settling in columns,
- a staged ``set_share`` swaps the dense battery sub-fleet caches at
  the next tick boundary, and
- a buffered tick record holds only ndarrays and the layout objects
  settle shares between ticks, nothing the garbage collector tracks.
"""

import gc

import numpy as np
import pytest

from repro.cluster.container import reset_container_id_counter
from repro.cluster.cop import ContainerOrchestrationPlatform
from repro.core.config import ClusterConfig, ShareConfig
from repro.core.errors import ConfigurationError
from repro.core.events import TickEvent
from repro.core.fleetarrays import (
    _COLUMNS,
    FleetArrays,
    ServedFractions,
    _ContainerCache,
    _GatherPlan,
    _TickRecord,
)
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
    """Field-by-field equality of two `_ContainerCache` builds, whose
    launch-order columns are each container's own id, app and gpu."""
    assert a.key == b.key
    assert a.ids == b.ids == tuple(c.id for c in a.clist)
    assert a.apps == b.apps == tuple(c.app_name for c in a.clist)
    assert len(a.clist) == len(b.clist)
    for x, y in zip(a.clist, b.clist):
        assert x is y
    np.testing.assert_array_equal(a.cf, b.cf)
    np.testing.assert_array_equal(a.cf_idle, b.cf_idle)
    assert a.cpu_range == b.cpu_range
    assert a.gpu_range == b.gpu_range
    np.testing.assert_array_equal(a.gpu_mask, b.gpu_mask)
    assert a.gpu_mask.tolist() == [c.has_gpu for c in a.clist]
    assert a.baseline_w == b.baseline_w
    np.testing.assert_array_equal(a.powers(), b.powers())


class TestContainerCacheExtension:
    """How the container cache follows the platform's population.

    Every change of its key — a launch, a stop or a core resize on its
    own platform — builds the cache once, from scratch, equal field by
    field to a fresh build; an unchanged key reuses it.
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
        assert second.key == platform.version
        assert fleet.container_cache(platform) is second
        monkeypatch.undo()
        _assert_cache_equal(second, _ContainerCache(platform, second.key))

    def test_gather_plan_walks_each_tenant_in_launch_order(self):
        platform = self._platform()
        platform.launch_container("outside", 1.0)
        platform.launch_container("beta", 1.0, role="coordinator")
        platform.launch_container("alpha", 2.0)
        cc = FleetArrays().container_cache(platform)
        names = ["beta", "gamma", "alpha"]
        plan = _GatherPlan(cc, names, {name: i for i, name in enumerate(names)})
        # Reference: each tenant's containers, in layout then launch
        # order; the app outside the layout takes no part.
        walk = [
            (i, p)
            for i, name in enumerate(names)
            for p, container in enumerate(cc.clist)
            if container.app_name == name
        ]
        assert plan.flat_app.tolist() == [i for i, _ in walk]
        assert plan.flat_pos.tolist() == [p for _, p in walk]
        assert plan.ids_flat == [cc.clist[p].id for _, p in walk]
        assert plan.counts.tolist() == [2.0, 0.0, 3.0]
        assert plan.bounds == [0, 2, 2, 5]

    def test_stop_forces_full_rebuild(self, monkeypatch):
        platform = self._platform()
        fleet = FleetArrays()
        first = fleet.container_cache(platform)
        platform.stop_container(first.clist[0].id)  # moves the version
        rebuilds = self._count_builds(monkeypatch)
        second = fleet.container_cache(platform)
        assert rebuilds == [1]
        assert len(second.clist) == len(first.clist) - 1

    @pytest.mark.parametrize("change", ["stop", "resize"])
    def test_other_platforms_change_keeps_this_cache(self, change):
        """Each platform has its own topology generation: a stop or a
        resize on one site's platform leaves another site's cache in
        place."""
        here, there = self._platform(), self._platform()
        fleet = FleetArrays()
        cache = fleet.container_cache(here)
        victim = there.containers()[0]
        if change == "stop":
            there.stop_container(victim.id)
        else:
            there.set_container_cores(victim.id, 2.0)
        assert fleet.container_cache(here) is cache


def _shortfall_fleet(batched):
    """Battery-free tenants on a 0.5 W grid share before dawn: their
    1-core workers (up to 1.25 W) are served fractions below 1."""
    fleet = _small_fleet(apps=9, ticks=60, batched=batched)
    ecovisor = fleet.ecovisor
    for name in ecovisor.app_names():
        if ecovisor.ves_for(name).battery is None:
            ecovisor.set_share(name, ShareConfig(grid_power_w=0.5))
    return fleet


class TestServedFractions:
    @staticmethod
    def _settled(batched):
        fleet = _shortfall_fleet(batched)
        ecovisor = fleet.ecovisor
        returned = []
        settle = ecovisor.settle

        def spy(tick):
            fractions = settle(tick)
            returned.append(fractions)
            return fractions

        ecovisor.settle = spy
        fleet.engine.run(60)
        return returned

    def test_both_paths_return_equal_items_every_tick(self):
        columnar = self._settled(True)
        objects = self._settled(False)
        assert len(columnar) == len(objects) == 60
        for a, b in zip(columnar, objects):
            assert type(a) is type(b) is ServedFractions
            assert list(a.items()) == list(b.items())
        assert min(min(f.values()) for f in columnar) < 0.5

    @pytest.mark.parametrize("batched", [True, False], ids=["columnar", "objects"])
    def test_unseen_name_and_read_only_column(self, batched):
        fractions = self._settled(batched)[-1]
        assert len(fractions) == 9 and "nobody" not in fractions
        assert fractions.get("nobody", 1.0) == 1.0
        with pytest.raises(KeyError):
            fractions["nobody"]
        assert fractions.column.shape == (10,) and fractions.column[-1] == 1.0
        with pytest.raises(ValueError):
            fractions.column[0] = 0.5


class TestColumnarSwitch:
    def test_turning_a_columnar_ecovisor_off_raises(self):
        """The refused switch changes nothing: the same store settles
        the next tick in columns and buffers its record."""
        fleet = _small_fleet(apps=6, ticks=4)
        ecovisor = fleet.ecovisor
        fleet.engine.run(2)
        store = ecovisor._fleet
        pending = len(store.pending)
        with pytest.raises(ConfigurationError, match="stays columnar"):
            ecovisor.columnar = False
        assert ecovisor.columnar is True and ecovisor._fleet is store
        ecovisor.columnar = True  # already on: keeps the store
        assert ecovisor._fleet is store
        fleet.engine.run(1)
        assert len(store.pending) == pending + 1
        snap = store.current_snap
        assert snap.settled and snap.tick_index == 2
        assert ecovisor.state_for("fleet-0001") is snap.state(1)

    def test_turning_off_on_the_object_path_is_a_no_op(self):
        fleet = _small_fleet(apps=6, ticks=4, batched=False)
        ecovisor = fleet.ecovisor
        ecovisor.columnar = False
        fleet.engine.run(2)
        ecovisor.columnar = False
        assert ecovisor.columnar is False and ecovisor._fleet is None


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
        plan = store._plan
        assert record.counts is plan.counts and record.ids_flat is plan.ids_flat
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
