"""SDK parity: EcovisorClient must be byte-identical to EcovisorAPI.

Every ``EcovisorAPI`` method is driven twice — in-process and through
``EcovisorClient`` over the Router transport — and the results must be
*byte-identical* (exact float equality, identical serialized
snapshots).  Each scalar SDK getter must equal its ``api.state()``
field.  The event feed must replay exactly the signals the
in-process ``SignalBus`` delivered, reconstructed to equal dataclasses.
"""

import json

import pytest

from repro.client import EcovisorAdminClient, EcovisorClient
from repro.core.api import connect
from repro.core.config import ShareConfig
from repro.core.signals import (
    AppEvicted,
    BatteryEmpty,
    BatteryFull,
    CarbonChange,
    PriceChange,
    ShareChanged,
    SolarChange,
)
from repro.market.prices import make_price_trace
from repro.policies import CarbonAgnosticPolicy
from repro.rest.server import EcovisorRestServer
from repro.sim.experiment import solar_battery_environment
from repro.workloads.mltrain import MLTrainingJob

SIGNAL_TYPES = (
    CarbonChange,
    PriceChange,
    SolarChange,
    BatteryFull,
    BatteryEmpty,
    ShareChanged,
    AppEvicted,
)


@pytest.fixture(scope="module")
def world():
    """A market-attached solar+battery run with real workload demand."""
    env = solar_battery_environment(
        solar_peak_w=20.0,
        battery_capacity_wh=60.0,
        days=1,
        price_trace=make_price_trace("realtime", days=1),
    )
    env.engine.add_application(
        MLTrainingJob(name="shop", total_work_units=1e9),
        ShareConfig(solar_fraction=0.5, battery_fraction=0.5),
        CarbonAgnosticPolicy(workers=2),
    )
    env.engine.add_application(
        MLTrainingJob(name="batch", total_work_units=1e9),
        ShareConfig(grid_power_w=float("inf")),
        CarbonAgnosticPolicy(workers=1),
    )
    api = connect(env.ecovisor, "shop")

    # Mirror the journal's delivery through the in-process SignalBus:
    # one subscription per signal type, collected in delivery order.
    delivered = []
    for signal_type in SIGNAL_TYPES:
        api.signals.on(signal_type, delivered.append)

    env.engine.run(3 * 60)  # three hours crossing solar ramp-up
    server = EcovisorRestServer(env.ecovisor)
    return {
        "env": env,
        "api": api,
        "client": EcovisorClient(server, "shop"),
        "admin": EcovisorAdminClient(server),
        "server": server,
        "delivered": delivered,
    }


class TestObservationParity:
    def test_state_snapshot_byte_identical(self, world):
        via_api = json.dumps(world["api"].state().to_dict(), sort_keys=True)
        via_client = json.dumps(world["client"].state().to_dict(), sort_keys=True)
        assert via_api == via_client
        # And the reconstructed object equals the in-process one.
        assert world["client"].state() == world["api"].state()

    def test_every_scalar_getter_byte_identical(self, world):
        state, client = world["api"].state(), world["client"]
        assert client.get_solar_power() == state.solar_power_w
        assert client.get_grid_power() == state.grid_power_w
        assert client.get_grid_carbon() == state.grid_carbon_g_per_kwh
        assert client.get_grid_price() == state.grid_price_usd_per_kwh
        assert client.get_energy_cost() == state.total_cost_usd
        assert client.get_battery_charge_level() == state.battery_charge_level_wh
        assert client.get_battery_capacity() == state.battery_capacity_wh
        assert client.get_battery_discharge_rate() == state.battery_discharge_rate_w

    def test_meaningful_figures(self, world):
        # Guard against vacuous parity: the run produced real flows.
        state = world["client"].state()
        assert state.total_energy_wh > 0.0
        assert state.total_cost_usd > 0.0
        assert state.has_market is True
        assert state.battery is not None

    def test_container_surface_parity(self, world):
        api, client = world["api"], world["client"]
        in_process = api.list_containers()
        via_client = client.list_containers()
        assert [c.id for c in via_client] == [c.id for c in in_process]
        assert [c.cores for c in via_client] == [c.cores for c in in_process]
        assert [c.role for c in via_client] == [c.role for c in in_process]
        for container in in_process:
            assert client.get_container_power(container.id) == (
                api.get_container_power(container.id)
            )
            assert client.get_container_powercap(container.id) == (
                api.get_container_powercap(container.id)
            )


class TestActuationParity:
    def test_setters_visible_in_process(self, world):
        api, client = world["api"], world["client"]
        client.set_battery_charge_rate(2.5)
        assert api.ecovisor.ves_for("shop").battery.charge_rate_w == 2.5
        client.set_battery_max_discharge(4.0)
        assert api.ecovisor.ves_for("shop").battery.max_discharge_w == 4.0
        container = api.list_containers()[0]
        client.set_container_powercap(container.id, 1.25)
        assert api.get_container_powercap(container.id) == 1.25
        client.set_container_powercap(container.id, None)
        assert api.get_container_powercap(container.id) is None

    def test_launch_and_scale_through_client(self, world):
        api, client = world["api"], world["client"]
        before = len(api.list_containers())
        worker = client.launch_container(cores=1, role="extra")
        assert any(c.id == worker.id for c in api.list_containers())
        client.stop_container(worker.id)
        assert len(api.list_containers()) == before


class TestEventFeedParity:
    def test_feed_replays_signal_bus_deliveries_exactly(self, world):
        page = world["client"].events(cursor=0)
        assert page.dropped == 0
        # events[0] is the admission (published before any subscriber
        # could exist); everything after must equal the in-process
        # deliveries, as equal dataclasses, in order.
        assert type(page.events[0]).__name__ == "AppAdmittedEvent"
        assert list(page.events[1:]) == world["delivered"]
        assert len(world["delivered"]) > 0

    def test_cursor_tail_is_incremental(self, world):
        page = world["client"].events(cursor=0)
        tail = world["client"].events(cursor=page.next_cursor - 2)
        assert list(tail.events) == list(page.events[-2:])


class TestLifecycleParity:
    def test_admit_rebalance_evict_through_the_sdk(self, world):
        admin = world["admin"]
        env = world["env"]
        admin.admit_app("guest", solar_fraction=0.1, battery_fraction=0.1)
        assert "guest" in env.ecovisor.app_names()
        guest = EcovisorClient(world["server"], "guest")
        guest.launch_container(cores=1)
        admin.set_share("guest", solar_fraction=0.2)
        assert env.ecovisor.pending_share("guest").solar_fraction == 0.2
        env.engine.run(5)
        assert env.ecovisor.share_for("guest").solar_fraction == 0.2
        account = admin.evict_app("guest")
        in_process = env.ecovisor.ledger.account("guest")
        assert account["energy_wh"] == in_process.energy_wh
        assert account["cost_usd"] == in_process.cost_usd
        assert in_process.finalized
        # The guest's feed survives with the terminal event readable.
        page = guest.events(cursor=0)
        names = [type(e).__name__ for e in page.events]
        assert names[0] == "AppAdmittedEvent"
        assert "ShareChangedEvent" in names
        assert names[-1] == "AppEvictedEvent"


class TestObservabilityParity:
    """The two observability routes through the SDK vs direct requests.

    A scrape counts *prior* scrapes of ``/v1/metrics`` into
    ``http_requests_total``, so two consecutive scrapes differ exactly
    on that route's series; masking those lines must leave the outputs
    byte-identical.
    """

    @staticmethod
    def _mask_self_scrape(text: str) -> str:
        return "\n".join(
            line
            for line in text.splitlines()
            if 'route="/v1/metrics"' not in line
        )

    def test_metrics_scrape_byte_identical_modulo_self_count(self, world):
        via_client = world["client"].metrics()
        direct = world["server"].request("GET", "/v1/metrics").body
        assert self._mask_self_scrape(via_client) == self._mask_self_scrape(
            direct
        )
        assert "# TYPE http_requests_total counter" in via_client
        assert "# TYPE tick_total_seconds histogram" in via_client

    def test_admin_client_shares_the_same_scrape(self, world):
        assert self._mask_self_scrape(
            world["admin"].metrics()
        ) == self._mask_self_scrape(world["client"].metrics())

    def test_tick_profile_byte_identical(self, world):
        via_client = world["client"].tick_profile(last=4)
        direct = world["server"].request("GET", "/v1/metrics/ticks?last=4").body
        assert json.dumps(via_client, sort_keys=True) == json.dumps(
            direct, sort_keys=True
        )

    def test_journal_drop_figure_rides_the_events_page(self, world):
        page = world["client"].events(cursor=0)
        in_process = world["env"].ecovisor.journal.overflow_dropped_for("shop")
        assert page.journal_dropped == in_process

    def test_profiled_ticks_surface_through_the_sdk(self, world):
        # Mutates the shared world (runs extra ticks), so it runs last:
        # every parity test above re-reads both sides live anyway.
        engine = world["env"].engine
        engine.run(5)
        payload = world["client"].tick_profile(last=3)
        assert payload["enabled"] is True
        assert payload["returned"] == 3
        for tick in payload["ticks"]:
            assert sum(tick["phases"].values()) == pytest.approx(
                tick["total_s"]
            )
        direct = world["server"].request("GET", "/v1/metrics/ticks?last=3").body
        assert json.dumps(payload, sort_keys=True) == json.dumps(
            direct, sort_keys=True
        )
