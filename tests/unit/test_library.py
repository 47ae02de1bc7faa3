"""Table 2 library layer."""

import pytest

from repro.core.api import connect
from repro.core.config import ShareConfig
from repro.core.library import AppEnergyLibrary
from repro.core.signals import BatteryFull, CarbonChange, SolarChange
from tests.conftest import make_ecovisor, run_ticks


@pytest.fixture
def setup():
    eco = make_ecovisor(solar_w=0.0, carbon_g_per_kwh=300.0)
    eco.admit_app("a", ShareConfig())
    api = connect(eco, "a")
    library = AppEnergyLibrary(api)
    return eco, api, library


class TestMonitoringQueries:
    def test_app_energy_and_carbon(self, setup):
        eco, api, lib = setup
        c = api.launch_container(1)

        def demand(tick):
            c.set_demand_utilization(1.0)

        run_ticks(eco, 60, demand)
        assert lib.get_app_energy(0.0, 3600.0) == pytest.approx(1.25, rel=1e-3)
        assert lib.get_app_carbon() == pytest.approx(0.375, rel=1e-3)
        assert lib.get_app_carbon(0.0, 1800.0) == pytest.approx(0.1875, rel=1e-2)

    def test_app_power_current(self, setup):
        eco, api, lib = setup
        c = api.launch_container(1)

        def demand(tick):
            c.set_demand_utilization(1.0)

        run_ticks(eco, 2, demand)
        assert lib.get_app_power() == pytest.approx(1.25)

    def test_container_energy_and_carbon(self, setup):
        eco, api, lib = setup
        c = api.launch_container(1)

        def demand(tick):
            c.set_demand_utilization(1.0)

        run_ticks(eco, 60, demand)
        assert lib.get_container_energy(c.id, 0.0, 3600.0) == pytest.approx(
            1.25, rel=1e-2
        )
        assert lib.get_container_carbon(c.id, 0.0, 3600.0) == pytest.approx(
            0.375, rel=1e-2
        )


class TestCarbonRate:
    def test_container_rate_enforced_as_cap(self, setup):
        eco, api, lib = setup
        c = api.launch_container(1)
        # 0.0625 mg/s at 300 g/kWh -> 0.75 W cap.
        lib.set_carbon_rate(c.id, 0.0625)

        def demand(tick):
            c.set_demand_utilization(1.0)

        run_ticks(eco, 3, demand)
        assert c.power_cap_w == pytest.approx(0.75, rel=1e-3)
        assert api.get_container_power(c.id) <= 0.75 + 1e-9

    def test_rate_cleared(self, setup):
        eco, api, lib = setup
        c = api.launch_container(1)
        lib.set_carbon_rate(c.id, 0.0625)
        run_ticks(eco, 1)
        lib.set_carbon_rate(c.id, None)
        assert c.power_cap_w is None

    def test_app_rate_spreads_over_containers(self, setup):
        eco, api, lib = setup
        c1 = api.launch_container(1)
        c2 = api.launch_container(1)
        lib.set_app_carbon_rate(0.125)
        run_ticks(eco, 2)
        assert c1.power_cap_w == pytest.approx(0.75, rel=1e-3)
        assert c2.power_cap_w == pytest.approx(0.75, rel=1e-3)

    def test_negative_rate_rejected(self, setup):
        _, _, lib = setup
        with pytest.raises(ValueError):
            lib.set_carbon_rate("x", -1.0)
        with pytest.raises(ValueError):
            lib.set_app_carbon_rate(-1.0)


class TestCarbonBudget:
    def test_budget_tracking(self, setup):
        eco, api, lib = setup
        lib.set_carbon_budget(1.0)
        c = api.launch_container(1)

        def demand(tick):
            c.set_demand_utilization(1.0)

        run_ticks(eco, 60, demand)
        remaining = lib.remaining_budget_g()
        assert remaining == pytest.approx(1.0 - 0.375, rel=1e-2)
        assert not lib.budget_exceeded()

    def test_budget_exceeded(self, setup):
        eco, api, lib = setup
        lib.set_carbon_budget(0.01)
        c = api.launch_container(4)

        def demand(tick):
            c.set_demand_utilization(1.0)

        run_ticks(eco, 60, demand)
        assert lib.budget_exceeded()

    def test_no_budget_means_none(self, setup):
        _, _, lib = setup
        assert lib.remaining_budget_g() is None
        assert not lib.budget_exceeded()

    def test_budget_cleared(self, setup):
        _, _, lib = setup
        lib.set_carbon_budget(5.0)
        lib.set_carbon_budget(None)
        assert lib.carbon_budget_g is None

    def test_negative_budget_rejected(self, setup):
        _, _, lib = setup
        with pytest.raises(ValueError):
            lib.set_carbon_budget(-1.0)


class TestNotifications:
    def test_carbon_change_notification(self):
        from repro.carbon.service import CarbonIntensityService
        from repro.carbon.traces import CarbonTrace
        from repro.core.config import CarbonServiceConfig

        eco = make_ecovisor()
        eco._carbon_service = CarbonIntensityService(
            CarbonServiceConfig(region="jumpy"),
            trace=CarbonTrace([100.0, 400.0] * 5),
        )
        eco.admit_app("a", ShareConfig())
        got = []
        connect(eco, "a").signals.on(CarbonChange, got.append)
        run_ticks(eco, 12)
        assert len(got) >= 1

    def test_battery_full_notification_filtered_by_app(self, small_battery_config):
        eco = make_ecovisor(solar_w=50.0, battery_config=small_battery_config)
        eco.admit_app("a", ShareConfig(solar_fraction=0.5, battery_fraction=0.5))
        eco.admit_app("b", ShareConfig(solar_fraction=0.5, battery_fraction=0.5))
        got_a = []
        connect(eco, "a").signals.on(BatteryFull, got_a.append)
        run_ticks(eco, 60 * 6)
        assert all(event.app_name == "a" for event in got_a)
        assert len(got_a) == 1

    def test_solar_change_notification(self):
        from repro.core.config import SolarConfig
        from repro.energy.solar import SolarArrayEmulator, TabularSolarTrace

        eco = make_ecovisor()
        eco._plant._solar = SolarArrayEmulator(
            SolarConfig(peak_power_w=100.0, panel_efficiency_derating=1.0),
            TabularSolarTrace([0.0, 0.5, 1.0, 0.2]),
        )
        eco.admit_app("a", ShareConfig(solar_fraction=1.0))
        got = []
        connect(eco, "a").signals.on(SolarChange, got.append)
        run_ticks(eco, 4)
        assert len(got) >= 1
