"""The ecovisor: registration, multiplexing, attribution, events."""

import pytest

from repro.core.config import ShareConfig
from repro.core.errors import AuthorizationError, ConfigurationError
from repro.core.events import (
    BatteryEmptyEvent,
    BatteryFullEvent,
    CarbonChangeEvent,
    PriceChangeEvent,
    TickEvent,
)
from tests.conftest import make_ecovisor, run_ticks


class TestRegistration:
    def test_register_creates_ves(self):
        eco = make_ecovisor()
        ves = eco.admit_app("a", ShareConfig(solar_fraction=0.5))
        assert ves.app_name == "a"
        assert eco.app_names() == ["a"]

    def test_duplicate_rejected(self):
        eco = make_ecovisor()
        eco.admit_app("a", ShareConfig())
        with pytest.raises(ConfigurationError):
            eco.admit_app("a", ShareConfig())

    def test_solar_oversubscription_rejected(self):
        eco = make_ecovisor()
        eco.admit_app("a", ShareConfig(solar_fraction=0.7))
        with pytest.raises(ConfigurationError):
            eco.admit_app("b", ShareConfig(solar_fraction=0.5))

    def test_battery_oversubscription_rejected(self):
        eco = make_ecovisor()
        eco.admit_app("a", ShareConfig(battery_fraction=0.7))
        with pytest.raises(ConfigurationError):
            eco.admit_app("b", ShareConfig(battery_fraction=0.5))

    def test_battery_share_without_battery_rejected(self):
        eco = make_ecovisor(with_battery=False)
        with pytest.raises(ConfigurationError):
            eco.admit_app("a", ShareConfig(battery_fraction=0.5))

    def test_solar_share_without_array_rejected(self):
        eco = make_ecovisor(with_solar=False)
        with pytest.raises(ConfigurationError):
            eco.admit_app("a", ShareConfig(solar_fraction=0.5))


class TestOwnership:
    def test_cross_app_container_access_denied(self):
        eco = make_ecovisor()
        eco.admit_app("a", ShareConfig())
        eco.admit_app("b", ShareConfig())
        container = eco.launch_container("a", 1)
        with pytest.raises(AuthorizationError):
            eco.set_container_powercap("b", container.id, 1.0)
        with pytest.raises(AuthorizationError):
            eco.stop_container("b", container.id)

    def test_owner_can_manage(self):
        eco = make_ecovisor()
        eco.admit_app("a", ShareConfig())
        container = eco.launch_container("a", 1)
        eco.set_container_powercap("a", container.id, 1.0)
        eco.set_container_cores("a", container.id, 2)
        eco.stop_container("a", container.id)


class TestTickLoop:
    def test_settlement_attributes_carbon(self):
        eco = make_ecovisor(solar_w=0.0, carbon_g_per_kwh=300.0)
        eco.admit_app("a", ShareConfig())
        c = eco.launch_container("a", 1)

        def demand(tick):
            c.set_demand_utilization(1.0)

        run_ticks(eco, 60, demand)
        # 1.25 W for one hour at 300 g/kWh = 0.375 g.
        assert eco.ledger.app_carbon_g("a") == pytest.approx(0.375, rel=1e-3)

    def test_solar_share_reduces_carbon(self):
        eco = make_ecovisor(solar_w=10.0, carbon_g_per_kwh=300.0)
        eco.admit_app("a", ShareConfig(solar_fraction=1.0))
        c = eco.launch_container("a", 1)

        def demand(tick):
            c.set_demand_utilization(1.0)

        run_ticks(eco, 60, demand)
        assert eco.ledger.app_carbon_g("a") == pytest.approx(0.0)

    def test_container_attribution_sums_to_app(self):
        eco = make_ecovisor(solar_w=0.0)
        eco.admit_app("a", ShareConfig())
        c1 = eco.launch_container("a", 1)
        c2 = eco.launch_container("a", 2)

        def demand(tick):
            c1.set_demand_utilization(1.0)
            c2.set_demand_utilization(0.5)

        run_ticks(eco, 10, demand)
        account = eco.ledger.account("a")
        assert c1.carbon_g + c2.carbon_g == pytest.approx(account.carbon_g)
        assert c1.energy_wh + c2.energy_wh == pytest.approx(account.energy_wh)

    def test_served_fraction_reported(self):
        eco = make_ecovisor(solar_w=0.0)
        eco.admit_app("a", ShareConfig(grid_power_w=0.5))
        c = eco.launch_container("a", 1)
        from repro.core.clock import SimulationClock

        clock = SimulationClock(60.0)
        tick = clock.current_tick()
        eco.begin_tick(tick)
        c.set_demand_utilization(1.0)
        fractions = eco.settle(tick)
        assert fractions["a"] == pytest.approx(0.5 / 1.25)

    def test_tick_callbacks_invoked(self):
        eco = make_ecovisor()
        eco.admit_app("a", ShareConfig())
        calls = []
        eco.register_tick_callback("a", lambda tick, state: calls.append(tick))
        run_ticks(eco, 3)
        assert len(calls) == 3


class TestSolarBuffer:
    def test_first_tick_sees_current_solar(self):
        eco = make_ecovisor(solar_w=10.0)
        eco.admit_app("a", ShareConfig(solar_fraction=1.0))
        from repro.core.clock import SimulationClock

        clock = SimulationClock(60.0)
        eco.begin_tick(clock.current_tick())
        assert eco.ves_for("a").solar_power_w == pytest.approx(10.0)

    def test_buffered_solar_lags_one_tick(self):
        """With a time-varying array, apps see the previous interval's
        output (the one-tick buffer of Section 3.1)."""
        from repro.core.clock import SimulationClock
        from repro.energy.solar import SolarArrayEmulator, TabularSolarTrace
        from repro.core.config import SolarConfig

        eco = make_ecovisor()
        # Replace the plant's array with a ramp: 0, 10, 20, ... W.
        ramp = SolarArrayEmulator(
            SolarConfig(peak_power_w=100.0, panel_efficiency_derating=1.0),
            TabularSolarTrace([0.0, 0.1, 0.2, 0.3]),
        )
        eco._plant._solar = ramp
        eco.admit_app("a", ShareConfig(solar_fraction=1.0))
        clock = SimulationClock(60.0)
        seen = []
        for _ in range(3):
            tick = clock.current_tick()
            eco.begin_tick(tick)
            seen.append(eco.ves_for("a").solar_power_w)
            eco.settle(tick)
            clock.advance()
        # Tick 0 sees the current sample (0 W); tick 1 sees tick 0's
        # sample (0 W, buffered); tick 2 sees tick 1's sample (10 W).
        assert seen == pytest.approx([0.0, 0.0, 10.0])


class TestEvents:
    def test_tick_event_published(self):
        eco = make_ecovisor()
        got = []
        eco.events.subscribe(TickEvent, got.append)
        run_ticks(eco, 2)
        assert len(got) == 2

    def test_carbon_change_event_on_jump(self):
        from repro.carbon.service import CarbonIntensityService
        from repro.carbon.traces import CarbonTrace
        from repro.core.config import CarbonServiceConfig

        eco = make_ecovisor()
        jumpy = CarbonTrace([100.0, 400.0] * 10)
        eco._carbon_service = CarbonIntensityService(
            CarbonServiceConfig(region="jumpy"), trace=jumpy
        )
        got = []
        eco.events.subscribe(CarbonChangeEvent, got.append)
        run_ticks(eco, 12)
        assert len(got) >= 1
        assert abs(got[0].delta_g_per_kwh) >= 10.0

    @pytest.mark.parametrize("signal", ["carbon", "price"])
    def test_step_after_a_zero_sample_is_published(self, signal):
        """A 0.0 first sample is a previous sample like any other."""
        from repro.carbon.service import CarbonIntensityService
        from repro.carbon.traces import CarbonTrace
        from repro.core.config import CarbonServiceConfig
        from repro.market.prices import PriceTrace

        if signal == "carbon":
            eco = make_ecovisor()
            eco._carbon_service = CarbonIntensityService(
                CarbonServiceConfig(region="zero-start"),
                trace=CarbonTrace([0.0, 400.0] * 10),
            )
            event_type, step = CarbonChangeEvent, 400.0
            fields = ("previous_g_per_kwh", "current_g_per_kwh")
        else:
            eco = make_ecovisor(price_trace=PriceTrace([0.0, 0.4] * 10))
            event_type, step = PriceChangeEvent, 0.4
            fields = ("previous_usd_per_kwh", "current_usd_per_kwh")
        eco.admit_app("a", ShareConfig())
        got = []
        eco.events.subscribe(event_type, got.append)
        run_ticks(eco, 12)
        # One-minute ticks over 5-minute samples: the signal steps up at
        # t=300 and back to 0.0 at t=600.
        assert [
            (e.time_s, getattr(e, fields[0]), getattr(e, fields[1])) for e in got
        ] == [(300.0, 0.0, step), (600.0, step, 0.0)]
        journaled = [
            e for e in eco.events_for("a").events if isinstance(e, event_type)
        ]
        assert journaled == got

    def test_battery_full_and_empty_events(self, small_battery_config):
        eco = make_ecovisor(
            solar_w=50.0, battery_config=small_battery_config
        )
        eco.admit_app("a", ShareConfig(solar_fraction=1.0, battery_fraction=1.0))
        full, empty = [], []
        eco.events.subscribe(BatteryFullEvent, full.append)
        eco.events.subscribe(BatteryEmptyEvent, empty.append)
        # No demand: 50 W of solar charges the 100 Wh battery to full.
        run_ticks(eco, 60 * 5)
        assert len(full) == 1
        assert full[0].app_name == "a"

        # Now a heavy load with no solar: battery drains to empty.
        eco2 = make_ecovisor(solar_w=0.0, battery_config=small_battery_config)
        eco2.admit_app("a", ShareConfig(battery_fraction=1.0, grid_power_w=0.0))
        c = eco2.launch_container("a", 4)
        eco2.events.subscribe(BatteryEmptyEvent, empty.append)

        def demand(tick):
            c.set_demand_utilization(1.0)

        run_ticks(eco2, 60 * 8, demand)
        assert len(empty) == 1


class TestPlantMetering:
    def test_grid_meter_accumulates(self):
        eco = make_ecovisor(solar_w=0.0)
        eco.admit_app("a", ShareConfig())
        c = eco.launch_container("a", 1)

        def demand(tick):
            c.set_demand_utilization(1.0)

        run_ticks(eco, 60, demand)
        assert eco.plant.grid.total_energy_wh == pytest.approx(1.25, rel=1e-3)
