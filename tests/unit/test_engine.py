"""Simulation engine orchestration."""

import pytest

from repro.core.clock import SimulationClock
from repro.core.config import ShareConfig
from repro.core.errors import SimulationError
from repro.sim.engine import SimulationEngine
from repro.workloads.base import Application, BatchJob
from tests.conftest import make_ecovisor


class CountingService(Application):
    """Records the engine's call ordering."""

    def __init__(self, name="svc"):
        super().__init__(name)
        self.calls = []

    def step(self, tick, duration_s):
        self.calls.append(("step", tick.index))

    def finish_tick(self, tick, duration_s, served_fraction):
        self.calls.append(("finish", tick.index, served_fraction))


class TinyJob(BatchJob):
    def __init__(self, name="job", work=120.0):
        super().__init__(name, work)

    def throughput_units_per_s(self, utils):
        return float(sum(utils))


class TestRun:
    def test_runs_requested_ticks(self):
        eco = make_ecovisor()
        engine = SimulationEngine(eco, SimulationClock(60.0))
        app = CountingService()
        engine.add_application(app, ShareConfig())
        executed = engine.run(5)
        assert executed == 5
        assert engine.clock.tick_index == 5

    def test_step_before_finish_each_tick(self):
        eco = make_ecovisor()
        engine = SimulationEngine(eco, SimulationClock(60.0))
        app = CountingService()
        engine.add_application(app, ShareConfig())
        engine.run(2)
        kinds = [c[0] for c in app.calls]
        assert kinds == ["step", "finish", "step", "finish"]

    def test_rejects_nonpositive_ticks(self):
        eco = make_ecovisor()
        engine = SimulationEngine(eco)
        with pytest.raises(SimulationError):
            engine.run(0)

    def test_default_clock_uses_ecovisor_interval(self):
        eco = make_ecovisor()
        engine = SimulationEngine(eco)
        assert engine.clock.tick_interval_s == eco.config.tick_interval_s


class TestEarlyStop:
    def test_stops_when_batch_completes(self):
        eco = make_ecovisor(solar_w=0.0)
        engine = SimulationEngine(eco, SimulationClock(60.0))
        job = TinyJob(work=120.0)
        api = engine.add_application(job, ShareConfig())
        api.scale_to(2, cores=1)
        executed = engine.run(100, stop_when_batch_complete=True)
        assert job.is_complete
        assert executed < 100

    def test_services_do_not_trigger_early_stop(self):
        eco = make_ecovisor()
        engine = SimulationEngine(eco, SimulationClock(60.0))
        engine.add_application(CountingService(), ShareConfig())
        executed = engine.run(5, stop_when_batch_complete=True)
        assert executed == 5

    def test_mixed_apps_wait_for_batch(self):
        eco = make_ecovisor(solar_w=0.0, num_servers=6)
        engine = SimulationEngine(eco, SimulationClock(60.0))
        job = TinyJob(work=240.0)
        svc = CountingService()
        api = engine.add_application(job, ShareConfig())
        engine.add_application(svc, ShareConfig())
        api.scale_to(2, cores=1)
        executed = engine.run(100, stop_when_batch_complete=True)
        assert job.is_complete
        assert executed < 100


class TestScheduledLifecycle:
    """Engine-scheduled admissions, evictions, and share changes."""

    def _engine(self):
        eco = make_ecovisor()
        return SimulationEngine(eco, SimulationClock(60.0)), eco

    def test_scheduled_admission_joins_at_its_tick(self):
        engine, eco = self._engine()
        engine.add_application(CountingService("base"), ShareConfig())
        late = CountingService("late")
        engine.schedule_admission(3, late, ShareConfig())
        engine.run(5)
        assert "late" in eco.app_names()
        # First stepped at tick 3, for ticks 3 and 4.
        assert [c[1] for c in late.calls if c[0] == "step"] == [3, 4]

    def test_scheduled_eviction_stops_participation(self):
        engine, eco = self._engine()
        app = CountingService("gone")
        engine.add_application(app, ShareConfig())
        engine.add_application(CountingService("stays"), ShareConfig())
        engine.schedule_eviction(2, "gone")
        engine.run(4)
        assert "gone" not in eco.app_names()
        assert [c[1] for c in app.calls if c[0] == "step"] == [0, 1]
        assert "gone" in engine.evicted_accounts
        assert engine.evicted_accounts["gone"].finalized

    def test_scheduled_share_change_effective_same_tick(self):
        engine, eco = self._engine()
        app = CountingService("app")
        engine.add_application(app, ShareConfig(solar_fraction=0.5))
        engine.schedule_share_change(2, "app", ShareConfig(solar_fraction=1.0))
        engine.run(2)
        assert eco.share_for("app").solar_fraction == 0.5
        engine.run(1)  # tick 2: staged at the top, applied in begin_tick
        assert eco.share_for("app").solar_fraction == 1.0

    def test_evicted_accounts_keep_the_latest_life(self):
        engine, eco = self._engine()
        engine.add_application(CountingService("x"), ShareConfig())
        engine.run(1)
        engine.remove_application("x")
        engine.add_application(CountingService("x"), ShareConfig())
        engine.run(1)
        second = engine.remove_application("x")
        # Latest life wins in the name-keyed dict; the displaced life
        # is preserved in the ledger archive.
        assert engine.evicted_accounts["x"] is second
        assert len(eco.ledger.archived_accounts) == 1

    def test_external_eviction_unregisters_the_application(self):
        # Eviction through the ecovisor (the REST admin path) must stop
        # the engine from stepping the zombie and counting it for the
        # batch-completion rule.
        engine, eco = self._engine()
        app = CountingService("ext")
        engine.add_application(app, ShareConfig())
        engine.run(2)
        eco.evict_app("ext")  # not via the engine
        assert engine.applications == []
        assert "ext" in engine.evicted_accounts
        engine.run(2)
        assert [c[1] for c in app.calls if c[0] == "step"] == [0, 1]

    def test_remove_application_mid_run(self):
        engine, eco = self._engine()
        engine.add_application(CountingService("a"), ShareConfig())
        engine.run(2)
        account = engine.remove_application("a")
        assert account.finalized
        assert eco.app_names() == []
        assert engine.applications == []
        engine.run(2)  # an empty fleet still ticks

    def test_stale_schedule_entries_do_not_abort_the_run(self):
        # An eviction and a share change racing the same app (or plain
        # stale names) must be skipped, not kill every other tenant.
        engine, eco = self._engine()
        engine.add_application(CountingService("a"), ShareConfig())
        survivor = CountingService("b")
        engine.add_application(survivor, ShareConfig())
        engine.schedule_eviction(2, "a")
        engine.schedule_share_change(2, "a", ShareConfig(solar_fraction=0.5))
        engine.schedule_eviction(3, "a")  # already gone
        engine.schedule_share_change(3, "ghost", ShareConfig())
        assert engine.run(5) == 5
        assert [c[1] for c in survivor.calls if c[0] == "step"] == list(range(5))
        assert eco.app_names() == ["b"]

    def test_evictions_free_capacity_for_same_tick_admissions(self):
        engine, eco = self._engine()
        engine.add_application(
            CountingService("old"), ShareConfig(solar_fraction=0.9)
        )
        engine.schedule_eviction(2, "old")
        engine.schedule_admission(
            2, CountingService("new"), ShareConfig(solar_fraction=0.9)
        )
        engine.run(4)
        assert eco.app_names() == ["new"]


class TestObservers:
    def test_observers_called_each_tick(self):
        eco = make_ecovisor()
        engine = SimulationEngine(eco, SimulationClock(60.0))
        seen = []
        engine.add_observer(lambda tick: seen.append(tick.index))
        engine.run(3)
        assert seen == [0, 1, 2]


class TestServedFractions:
    def test_shortage_passed_to_finish_tick(self):
        eco = make_ecovisor(solar_w=0.0)
        engine = SimulationEngine(eco, SimulationClock(60.0))
        app = CountingService()
        api = engine.add_application(
            app, ShareConfig(grid_power_w=0.5)
        )
        container = api.launch_container(1)

        class Pusher:
            def __call__(self, tick):
                container.set_demand_utilization(1.0)

        # Set demand inside step by subclassing instead:
        class Hungry(CountingService):
            def step(self, tick, duration_s):
                super().step(tick, duration_s)
                container.set_demand_utilization(1.0)

        eco2 = make_ecovisor(solar_w=0.0)
        engine2 = SimulationEngine(eco2, SimulationClock(60.0))
        hungry = Hungry("hungry")
        api2 = engine2.add_application(hungry, ShareConfig(grid_power_w=0.5))
        container = api2.launch_container(1)
        engine2.run(2)
        fractions = [c[2] for c in hungry.calls if c[0] == "finish"]
        assert all(f == pytest.approx(0.4) for f in fractions)


class TestBatchedToggle:
    def test_batched_by_default_and_primes_cache(self):
        ecovisor = make_ecovisor()
        engine = SimulationEngine(ecovisor, SimulationClock(60.0))
        assert engine.batched is True
        engine.run(3)
        assert ecovisor.columnar is True
        assert ecovisor._signal_cache is not None

    def test_unbatched_clears_cache(self):
        ecovisor = make_ecovisor()
        engine = SimulationEngine(ecovisor, SimulationClock(60.0), batched=False)
        engine.run(3)
        assert ecovisor.columnar is False
        assert ecovisor._signal_cache is None

    def test_toggle_between_runs(self):
        ecovisor = make_ecovisor()
        engine = SimulationEngine(ecovisor, SimulationClock(60.0))
        engine.run(2)
        assert ecovisor.columnar is True
        engine.batched = False
        engine.run(2)
        assert ecovisor.columnar is False
        assert ecovisor._signal_cache is None

    def test_run_past_primed_window_falls_back_to_live(self):
        # Priming covers max_ticks; a second run re-primes from the
        # clock's new position, so signals stay correct either way.
        ecovisor = make_ecovisor(carbon_g_per_kwh=150.0)
        engine = SimulationEngine(ecovisor, SimulationClock(60.0))
        engine.run(2)
        engine.run(2)
        assert ecovisor.current_carbon_g_per_kwh == 150.0
        assert len(ecovisor.carbon_service.history()) == 4


class TestEveryTickProfiled:
    """One loop serves both paths, and it profiles every tick."""

    @pytest.mark.parametrize("batched", [True, False])
    def test_default_engine_records_every_tick(self, batched):
        eco = make_ecovisor(solar_w=0.0)
        engine = SimulationEngine(eco, SimulationClock(60.0), batched=batched)
        job = TinyJob(work=240.0)
        api = engine.add_application(job, ShareConfig())
        engine.add_application(CountingService(), ShareConfig())
        api.scale_to(2, cores=1)
        executed = engine.run(7)
        assert engine.profiler.ticks_recorded == executed == 7
        # An early stop records exactly the ticks it ran.
        executed += engine.run(100, stop_when_batch_complete=True)
        assert job.is_complete
        assert engine.profiler.ticks_recorded == executed < 107
        ticks = engine.profiler.last()
        assert [t["tick_index"] for t in ticks] == list(range(executed))
        for tick in ticks:
            assert len(tick["phases"]) == 6
            assert all(d >= 0.0 for d in tick["phases"].values())
            assert sum(tick["phases"].values()) == pytest.approx(
                tick["total_s"], rel=1e-12
            )

    @pytest.mark.parametrize("batched", [True, False])
    def test_rollups_reach_the_ecovisor_registry(self, batched):
        eco = make_ecovisor()
        engine = SimulationEngine(eco, SimulationClock(60.0), batched=batched)
        engine.add_application(CountingService(), ShareConfig())
        engine.run(4)
        assert eco.profiler is engine.profiler
        assert eco.metrics.get("tick_total_seconds").count == 4
        if not batched:
            # The reference path's upcall window is all fallback time.
            phases = eco.metrics.get("tick_phase_seconds")
            assert phases.labels(phase="policy_batch").sum == 0.0
