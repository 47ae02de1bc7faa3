"""The typed Python SDK over the Router transport."""

import pytest

from repro.client import EcovisorAdminClient, EcovisorClient, TransportError
from repro.client.sdk import _raise_for_status
from repro.core.config import ShareConfig
from repro.core.errors import (
    AuthorizationError,
    ConfigurationError,
    UnknownApplicationError,
    UnknownContainerError,
)
from repro.core.state import EnergyState
from repro.rest.server import EcovisorRestServer
from tests.conftest import make_ecovisor, run_ticks


@pytest.fixture
def server():
    eco = make_ecovisor(solar_w=10.0, carbon_g_per_kwh=250.0)
    eco.admit_app("a", ShareConfig(solar_fraction=0.5, battery_fraction=0.5))
    run_ticks(eco, 1)
    return EcovisorRestServer(eco)


@pytest.fixture
def client(server):
    return EcovisorClient(server, "a")


@pytest.fixture
def admin(server):
    return EcovisorAdminClient(server)


class TestEcovisorClient:
    def test_state_is_a_real_energy_state(self, client):
        state = client.state()
        assert isinstance(state, EnergyState)
        assert state.app_name == "a"
        assert state.solar_power_w == pytest.approx(5.0)
        assert state.battery is not None
        assert state.settled is True

    def test_getters(self, client):
        assert client.get_solar_power() == pytest.approx(5.0)
        assert client.get_grid_carbon() == pytest.approx(250.0)
        assert client.get_grid_price() == 0.0
        assert client.get_energy_cost() == 0.0
        assert client.get_battery_capacity() > 0.0

    def test_container_lifecycle(self, client):
        worker = client.launch_container(cores=2)
        assert worker.cores == 2.0
        listing = client.list_containers()
        assert [c.id for c in listing] == [worker.id]
        client.set_container_powercap(worker.id, 1.5)
        assert client.get_container_powercap(worker.id) == pytest.approx(1.5)
        client.set_container_cores(worker.id, 1.0)
        client.stop_container(worker.id)
        assert client.list_containers() == []

    def test_scale_to(self, client):
        ids = client.scale_to(3, cores=1.0)
        assert len(ids) == 3

    def test_battery_setters(self, client):
        client.set_battery_charge_rate(5.0)
        client.set_battery_max_discharge(8.0)

    def test_events_feed(self, client):
        page = client.events(cursor=0)
        assert page.app_name == "a"
        assert type(page.events[0]).__name__ == "AppAdmittedEvent"
        assert list(client.iter_events()) == list(page.events)

    def test_unknown_app_maps_to_exception(self, server):
        ghost = EcovisorClient(server, "ghost")
        with pytest.raises(UnknownApplicationError):
            ghost.state()

    def test_unknown_container_maps_to_exception(self, client):
        with pytest.raises(UnknownContainerError):
            client.get_container_power("nope")

    def test_cross_app_access_maps_to_authorization_error(self, server, client):
        worker = client.launch_container(cores=1)
        admin = EcovisorAdminClient(server)
        admin.admit_app("b")
        other = EcovisorClient(server, "b")
        with pytest.raises(AuthorizationError):
            other.set_container_powercap(worker.id, 1.0)

    def test_bad_input_maps_to_configuration_error(self, client):
        with pytest.raises(ConfigurationError):
            client.set_battery_charge_rate(-5.0)


class TestAdminClient:
    def test_list_and_get(self, admin):
        apps = admin.list_apps()
        assert [a.name for a in apps] == ["a"]
        assert admin.get_app("a").solar_fraction == 0.5

    def test_admit_set_share_evict(self, admin, server):
        share = admin.admit_app("b", solar_fraction=0.2, battery_fraction=0.2)
        assert share.name == "b"
        effective_at = admin.set_share("b", solar_fraction=0.3)
        assert effective_at == server._ecovisor.next_tick_index
        account = admin.evict_app("b")
        assert account["finalized"] is True
        assert "b" not in [a.name for a in admin.list_apps()]

    def test_admit_oversubscription_raises(self, admin):
        with pytest.raises(ConfigurationError):
            admin.admit_app("b", solar_fraction=0.6)

    def test_evict_unknown_raises(self, admin):
        with pytest.raises(UnknownApplicationError):
            admin.evict_app("ghost")


class TestErrorMapping:
    def test_unmappable_status_is_transport_error(self):
        with pytest.raises(TransportError) as err:
            _raise_for_status(500, "boom")
        assert err.value.status == 500

    def test_404_splits_container_vs_application(self):
        with pytest.raises(UnknownContainerError):
            _raise_for_status(404, "unknown container: 'c-1'")
        with pytest.raises(UnknownApplicationError):
            _raise_for_status(404, "unknown application: 'ghost'")

    def test_app_named_container_maps_to_application_error(self, server):
        ghost = EcovisorClient(server, "my-container-app")
        with pytest.raises(UnknownApplicationError):
            ghost.state()

    def test_event_page_is_the_core_journal_page(self, client):
        from repro.core.journal import JournalPage

        assert isinstance(client.events(), JournalPage)
