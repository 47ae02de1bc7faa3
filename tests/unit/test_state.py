"""The immutable per-tick EnergyState snapshot (API v1)."""

import dataclasses

import pytest

from repro.core.api import connect
from repro.core.config import ShareConfig
from repro.core.errors import ConfigurationError
from repro.core.state import BatteryState, EnergyState
from repro.sim.engine import SimulationEngine
from repro.core.clock import SimulationClock
from repro.policies.carbon_agnostic import CarbonAgnosticPolicy
from repro.workloads.base import BatchJob
from tests.conftest import TICK_S, make_ecovisor, run_ticks


class _SimpleJob(BatchJob):
    """Minimal concrete batch job: unit throughput per effective worker."""

    def throughput_units_per_s(self, effective_utilizations):
        return sum(effective_utilizations)


@pytest.fixture
def bound():
    eco = make_ecovisor(solar_w=10.0, carbon_g_per_kwh=250.0)
    eco.admit_app("a", ShareConfig(solar_fraction=0.5, battery_fraction=0.5))
    eco.admit_app("nobatt", ShareConfig())
    return eco, connect(eco, "a"), connect(eco, "nobatt")


class TestSnapshotContents:
    def test_environment_fields(self, bound):
        eco, api, _ = bound
        run_ticks(eco, 1)
        state = api.state()
        assert state.app_name == "a"
        assert state.solar_power_w == pytest.approx(5.0)
        assert state.grid_carbon_g_per_kwh == pytest.approx(250.0)
        assert state.grid_price_usd_per_kwh == 0.0
        assert state.has_market is False
        assert state.tick_index == 0
        assert state.duration_s == pytest.approx(TICK_S)

    def test_settled_flag_flips_at_settlement(self, bound):
        eco, api, _ = bound
        clock = SimulationClock(TICK_S)
        tick = clock.current_tick()
        eco.begin_tick(tick)
        assert api.state().settled is False
        eco.invoke_app_ticks(tick)
        assert api.state().settled is False
        eco.settle(tick)
        assert api.state().settled is True

    def test_shared_by_reference_within_phase(self, bound):
        eco, api, _ = bound
        run_ticks(eco, 1)
        assert api.state() is api.state()

    def test_frozen(self, bound):
        eco, api, _ = bound
        run_ticks(eco, 1)
        state = api.state()
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.solar_power_w = 99.0
        with pytest.raises(TypeError):
            state.container_power_w["x"] = 1.0

    def test_cumulative_ledger_fields(self, bound):
        eco, api, _ = bound
        container = api.launch_container(2)
        run_ticks(eco, 3, lambda tick: container.set_demand_utilization(1.0))
        state = api.state()
        assert state.total_energy_wh == pytest.approx(
            eco.ledger.app_energy_wh("a")
        )
        assert state.total_carbon_g == pytest.approx(eco.ledger.app_carbon_g("a"))
        assert state.total_energy_wh > 0

    def test_container_powers(self, bound):
        eco, api, _ = bound
        container = api.launch_container(2)
        run_ticks(eco, 2, lambda tick: container.set_demand_utilization(1.0))
        state = api.state()
        assert set(state.container_power_w) == {container.id}
        assert state.container_power_w[container.id] > 0


class TestBatteryAbsentUnification:
    """state().battery is None without a share; properties stay zero-default.

    Both access styles are supported: the explicit Optional on the
    snapshot, and the zero-default properties.
    """

    def test_battery_state_present(self, bound):
        eco, api, _ = bound
        run_ticks(eco, 1)
        battery = api.state().battery
        assert isinstance(battery, BatteryState)
        assert battery.charge_level_wh > 0
        assert battery.capacity_wh > battery.charge_level_wh
        assert 0.0 < battery.soc_fraction < 1.0

    def test_battery_none_without_share(self, bound):
        eco, _, api = bound
        run_ticks(eco, 1)
        state = api.state()
        assert state.battery is None
        assert state.has_battery is False

    def test_zero_default_properties_without_share(self, bound):
        eco, _, api = bound
        run_ticks(eco, 1)
        state = api.state()
        assert state.battery_charge_level_wh == 0.0
        assert state.battery_capacity_wh == 0.0
        assert state.battery_discharge_rate_w == 0.0
        assert state.battery_soc_fraction == 0.0

    def test_setters_still_raise_without_share(self, bound):
        _, _, api = bound
        with pytest.raises(ConfigurationError):
            api.set_battery_charge_rate(1.0)
        with pytest.raises(ConfigurationError):
            api.set_battery_max_discharge(1.0)


class TestComputedOncePerTick:
    def test_bare_tick_loop_builds_once_per_app_per_tick(self, bound):
        eco, api, api2 = bound
        ticks = 5
        container = api.launch_container(1)
        assert eco.state_builds == 0

        def observer(tick, state):
            # A read storm inside the upcall window must not trigger
            # extra builds: every consumer shares the tick's snapshot.
            for _ in range(10):
                api.state()
                api.get_container_power(container.id)

        api.register_tick(observer)
        run_ticks(eco, ticks)
        assert eco.state_builds == ticks * 2  # two registered apps

    def test_engine_run_builds_once_per_app_per_tick(self):
        eco = make_ecovisor(solar_w=0.0, carbon_g_per_kwh=100.0)
        engine = SimulationEngine(eco, SimulationClock(TICK_S))
        for name in ("j1", "j2", "j3"):
            engine.add_application(
                _SimpleJob(name, total_work_units=1e9),
                ShareConfig(grid_power_w=float("inf")),
                CarbonAgnosticPolicy(workers=2),
            )
        executed = engine.run(8)
        assert eco.state_builds == executed * 3

    def test_bootstrap_reads_do_not_inflate_counter(self, bound):
        eco, api, _ = bound
        api.state()  # pre-first-tick bootstrap builds are uncounted
        api.state()
        assert eco.state_builds == 0
        run_ticks(eco, 2)
        assert eco.state_builds == 2 * 2


class TestTickCallbackArity:
    def test_two_arg_callback_receives_state(self, bound):
        eco, api, _ = bound
        seen = []

        def observer(tick, state):
            seen.append((tick.index, state))

        api.register_tick(observer)
        run_ticks(eco, 2)
        assert [index for index, _ in seen] == [0, 1]
        assert all(isinstance(s, EnergyState) for _, s in seen)
        assert seen[0][1].app_name == "a"

    def test_one_arg_callback_fails_at_first_upcall(self, bound):
        eco, api, _ = bound
        api.register_tick(lambda tick: None)
        with pytest.raises(TypeError):
            run_ticks(eco, 1)

    def test_serialization_roundtrip(self, bound):
        eco, api, _ = bound
        run_ticks(eco, 1)
        payload = api.state().to_dict()
        assert payload["app_name"] == "a"
        assert payload["battery"]["capacity_wh"] > 0
        import json

        json.dumps(payload)  # must be JSON-serializable
