"""The narrow Table 1 API facade."""

import pytest

from repro.core.api import connect
from repro.core.config import ShareConfig
from repro.core.errors import (
    AuthorizationError,
    ConfigurationError,
    UnknownApplicationError,
)
from tests.conftest import make_ecovisor, run_ticks


@pytest.fixture
def bound():
    eco = make_ecovisor(solar_w=10.0, carbon_g_per_kwh=250.0)
    eco.admit_app("a", ShareConfig(solar_fraction=0.5, battery_fraction=0.5))
    eco.admit_app("b", ShareConfig(solar_fraction=0.5, battery_fraction=0.5))
    return eco, connect(eco, "a"), connect(eco, "b")


class TestConnect:
    def test_connect_unknown_app(self):
        eco = make_ecovisor()
        with pytest.raises(UnknownApplicationError):
            connect(eco, "ghost")


class TestGetters:
    def test_solar_and_carbon(self, bound):
        eco, api, _ = bound
        run_ticks(eco, 1)
        state = api.state()
        assert state.solar_power_w == pytest.approx(5.0)  # half of 10 W
        assert state.grid_carbon_g_per_kwh == pytest.approx(250.0)

    def test_battery_getters(self, bound):
        eco, api, _ = bound
        state = api.state()
        assert state.battery_charge_level_wh > 0
        assert state.battery_capacity_wh > state.battery_charge_level_wh
        assert state.battery_discharge_rate_w == 0.0

    def test_grid_power_after_settlement(self, bound):
        eco, api, _ = bound
        container = api.launch_container(4)

        def demand(tick):
            container.set_demand_utilization(1.0)

        run_ticks(eco, 2, demand)
        assert api.state().grid_power_w == pytest.approx(0.0)  # solar covers 5 W

    def test_container_getters(self, bound):
        eco, api, _ = bound
        c = api.launch_container(1)
        api.set_container_powercap(c.id, 0.9)
        assert api.get_container_powercap(c.id) == pytest.approx(0.9)
        c.set_demand_utilization(1.0)
        assert api.get_container_power(c.id) == pytest.approx(0.9)


class TestSetters:
    def test_battery_setters(self, bound):
        _, api, _ = bound
        api.set_battery_charge_rate(3.0)
        api.set_battery_max_discharge(8.0)
        ves = api.ecovisor.ves_for("a")
        assert ves.battery.charge_rate_w == pytest.approx(3.0)
        assert ves.battery.max_discharge_w == pytest.approx(8.0)

    def test_battery_setters_require_battery(self):
        eco = make_ecovisor()
        eco.admit_app("nobatt", ShareConfig())
        api = connect(eco, "nobatt")
        with pytest.raises(ConfigurationError):
            api.set_battery_charge_rate(1.0)
        state = api.state()
        assert state.battery is None
        assert state.battery_charge_level_wh == 0.0
        assert state.battery_discharge_rate_w == 0.0

    def test_powercap_clear(self, bound):
        _, api, _ = bound
        c = api.launch_container(1)
        api.set_container_powercap(c.id, 0.5)
        api.set_container_powercap(c.id, None)
        assert api.get_container_powercap(c.id) is None


class TestAuthorization:
    def test_cross_app_denied(self, bound):
        _, api_a, api_b = bound
        c = api_a.launch_container(1)
        with pytest.raises(AuthorizationError):
            api_b.set_container_powercap(c.id, 1.0)
        with pytest.raises(AuthorizationError):
            api_b.get_container_power(c.id)
        with pytest.raises(AuthorizationError):
            api_b.stop_container(c.id)


class TestResourceManagement:
    def test_scale_to(self, bound):
        _, api, _ = bound
        api.scale_to(3, cores=1)
        assert len(api.list_containers()) == 3
        api.scale_to(1, cores=1)
        assert len(api.list_containers()) == 1

    def test_roles_preserved_by_scaling(self, bound):
        _, api, _ = bound
        coordinator = api.launch_container(1, role="coordinator")
        api.scale_to(2, cores=1)  # workers
        api.scale_to(0, cores=1)
        remaining = api.list_containers()
        assert [c.id for c in remaining] == [coordinator.id]

    def test_vertical_scaling(self, bound):
        _, api, _ = bound
        c = api.launch_container(1)
        api.set_container_cores(c.id, 2)
        assert c.cores == 2


class TestTickRegistration:
    def test_tick_callback_runs(self, bound):
        eco, api, _ = bound
        calls = []
        api.register_tick(lambda tick, state: calls.append(tick))
        run_ticks(eco, 4)
        assert len(calls) == 4
        assert calls[0].index == 0
