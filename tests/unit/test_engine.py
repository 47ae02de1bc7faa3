"""Simulation engine orchestration."""

import pytest

from repro.carbon.service import CarbonIntensityService
from repro.carbon.traces import make_region_trace
from repro.core.clock import SimulationClock
from repro.core.config import ShareConfig
from repro.core.errors import SimulationError
from repro.market.prices import make_price_trace
from repro.market.service import PriceSignal
from repro.sim.engine import SimulationEngine
from repro.sim.experiment import grid_environment, solar_battery_environment
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

    def test_unbatched_clears_cache(self):
        ecovisor = make_ecovisor()
        engine = SimulationEngine(ecovisor, SimulationClock(60.0), batched=False)
        engine.run(3)
        assert ecovisor.columnar is False

    def test_toggle_between_runs(self):
        ecovisor = make_ecovisor()
        engine = SimulationEngine(ecovisor, SimulationClock(60.0))
        engine.run(2)
        assert ecovisor.columnar is True
        engine.batched = False
        engine.run(2)
        assert ecovisor.columnar is False

    def test_run_past_primed_window_falls_back_to_live(self):
        # Each run samples its ticks live from the clock's position, so
        # back-to-back runs record every tick's signals exactly once.
        ecovisor = make_ecovisor(carbon_g_per_kwh=150.0)
        engine = SimulationEngine(ecovisor, SimulationClock(60.0))
        engine.run(2)
        engine.run(2)
        assert ecovisor.current_carbon_g_per_kwh == 150.0
        assert len(ecovisor.carbon_service.history()) == 4


class TestSubclassedTraces:
    """The production path samples a subclassed trace through its
    override, tick by tick."""

    @staticmethod
    def _run(env, ticks):
        """Run ``ticks`` production-path ticks; return their start times."""
        env.engine.add_application(CountingService(), ShareConfig())
        env.engine.run(ticks)
        assert env.ecovisor.columnar is True
        return [k * 60.0 for k in range(ticks)]

    def test_subclassed_solar_trace_override_is_honored(self):
        from repro.energy.solar import SolarTrace

        class DeratedTrace(SolarTrace):
            def irradiance_at(self, time_s):
                return 0.5 * super().irradiance_at(time_s)

        env = solar_battery_environment(
            solar_peak_w=60.0, battery_capacity_wh=80.0, days=1, seed=4
        )
        stock = [env.plant.solar_power_w(60.0 * k) for k in range(420)]
        env.plant.solar._trace = DeratedTrace(days=1, seed=4)
        # 420 ticks run past dawn, so the derating has output to act on.
        times = self._run(env, 420)
        sampled = [env.plant.solar_power_w(t) for t in times]
        assert max(sampled) > 0.0
        assert sum(sampled) == pytest.approx(0.5 * sum(stock))
        # The one-tick buffer shows each tick the previous tick's sample.
        shown = env.ecovisor.database.series("plant.solar_w").values().tolist()
        assert shown == sampled[:1] + sampled[:-1]

    def test_subclassed_price_trace_override_is_honored(self):
        from repro.market.prices import PriceTrace

        class SurchargedTrace(PriceTrace):
            def price_at(self, time_s):
                return super().price_at(time_s) * 1.25 + 0.01

        base = make_price_trace("realtime", days=1, seed=5)
        env = grid_environment(
            trace=make_region_trace("caiso", days=1, seed=5),
            price_trace=base,
        )
        env.price_signal._trace = SurchargedTrace(base.samples, regime=base.regime)
        times = self._run(env, 100)
        stock = PriceSignal(env.price_signal.config, trace=base)
        assert env.price_signal.history() == [
            (t, stock.price_at(t) * 1.25 + 0.01) for t in times
        ]

    def test_subclassed_carbon_trace_override_is_honored(self):
        from repro.carbon.traces import CarbonTrace

        class ShiftedTrace(CarbonTrace):
            def intensity_at(self, time_s):
                return super().intensity_at(time_s) + 1.0

        base = make_region_trace("caiso", days=1, seed=5)
        env = grid_environment(trace=base)
        env.carbon_service._trace = ShiftedTrace(base.samples, region="caiso")
        times = self._run(env, 100)
        stock = CarbonIntensityService(env.carbon_service.config, trace=base)
        assert env.carbon_service.history() == [
            (t, stock.intensity_at(t) + 1.0) for t in times
        ]


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
