"""Billing: settlement cost fields, ledger queries, ecovisor wiring."""

import pytest

from repro.core.accounting import TickSettlement
from repro.core.api import connect
from repro.core.config import ShareConfig
from repro.core.errors import EnergyConservationError
from repro.core.events import PriceChangeEvent
from repro.core.library import AppEnergyLibrary
from repro.core.signals import PriceChange
from repro.market.prices import PriceTrace, constant_price_trace
from tests.conftest import make_ecovisor, run_ticks


def settlement(price: float = 0.0, cost: float = None, grid_wh: float = 1.0):
    """A grid-only settlement billed at ``price`` (cost defaults correct)."""
    if cost is None:
        cost = grid_wh / 1000.0 * price
    return TickSettlement(
        app_name="a",
        time_s=0.0,
        duration_s=60.0,
        carbon_intensity_g_per_kwh=200.0,
        demand_wh=grid_wh,
        served_wh=grid_wh,
        unmet_wh=0.0,
        solar_available_wh=0.0,
        solar_used_wh=0.0,
        solar_to_battery_wh=0.0,
        curtailed_wh=0.0,
        battery_discharge_wh=0.0,
        grid_load_wh=grid_wh,
        grid_to_battery_wh=0.0,
        carbon_g=grid_wh / 1000.0 * 200.0,
        price_usd_per_kwh=price,
        cost_usd=cost,
    )


class TestSettlementBilling:
    def test_defaults_are_cost_free(self):
        s = settlement()
        s.validate()
        assert s.price_usd_per_kwh == 0.0
        assert s.cost_usd == 0.0

    def test_consistent_billing_validates(self):
        settlement(price=0.40).validate()

    def test_inconsistent_billing_rejected(self):
        with pytest.raises(EnergyConservationError):
            settlement(price=0.40, cost=99.0).validate()

    def test_negative_cost_rejected(self):
        with pytest.raises(EnergyConservationError):
            settlement(price=0.0, cost=-1.0).validate()


class TestLedgerCost:
    def _run(self, price_trace):
        eco = make_ecovisor(
            solar_w=0.0, carbon_g_per_kwh=200.0, price_trace=price_trace
        )
        eco.admit_app("a", ShareConfig())
        container = eco.launch_container("a", 1)
        run_ticks(eco, 10, lambda tick: container.set_demand_utilization(1.0))
        return eco

    def test_app_cost_accumulates_grid_times_price(self):
        eco = self._run(constant_price_trace(0.40))
        account = eco.ledger.account("a")
        assert account.cost_usd > 0.0
        assert account.cost_usd == pytest.approx(account.grid_wh / 1000.0 * 0.40)
        assert eco.ledger.app_cost_usd("a") == account.cost_usd
        assert eco.ledger.total_cost_usd() == account.cost_usd

    def test_app_cost_equals_settlement_sum(self):
        eco = self._run(constant_price_trace(0.40))
        account = eco.ledger.account("a")
        assert account.cost_usd == pytest.approx(
            sum(s.cost_usd for s in account.settlements), abs=1e-12
        )

    def test_cost_between_windows(self):
        eco = self._run(constant_price_trace(0.40))
        total = eco.ledger.app_cost_usd("a")
        first = eco.ledger.cost_between("a", 0.0, 300.0)
        rest = eco.ledger.cost_between("a", 300.0, 600.0)
        assert first + rest == pytest.approx(total)

    def test_tou_boundary_tick_bills_new_price(self):
        """Ticks before a 5-minute price step bill the old price, the
        boundary tick the new one (mirrors a TOU period edge)."""
        eco = self._run(PriceTrace([0.10, 0.50]))
        settlements = eco.ledger.account("a").settlements
        assert [s.price_usd_per_kwh for s in settlements[:5]] == [0.10] * 5
        assert [s.price_usd_per_kwh for s in settlements[5:]] == [0.50] * 5
        low = sum(s.cost_usd for s in settlements[:5])
        high = sum(s.cost_usd for s in settlements[5:])
        assert high == pytest.approx(5.0 * low)

    def test_no_market_means_zero_cost(self):
        eco = self._run(None)
        assert eco.ledger.app_cost_usd("a") == 0.0
        assert eco.current_price_usd_per_kwh == 0.0
        assert not eco.has_market
        assert "grid.price_usd_per_kwh" not in eco.database.series_names()


class TestSolarOnlyBillsZero:
    def test_zero_grid_draw_interval_bills_zero(self):
        eco = make_ecovisor(
            solar_w=50.0, carbon_g_per_kwh=200.0,
            price_trace=constant_price_trace(0.55),
        )
        eco.admit_app("a", ShareConfig(solar_fraction=1.0, grid_power_w=0.0))
        container = eco.launch_container("a", 1)
        run_ticks(eco, 5, lambda tick: container.set_demand_utilization(1.0))
        account = eco.ledger.account("a")
        assert account.energy_wh > 0.0  # solar served real demand
        assert account.grid_wh == 0.0
        assert account.cost_usd == 0.0  # no grid draw, no bill
        # The price was nonetheless visible all along.
        assert eco.current_price_usd_per_kwh == pytest.approx(0.55)


class TestMarketSurface:
    def _eco(self, price_trace=None):
        eco = make_ecovisor(
            solar_w=0.0,
            price_trace=price_trace or constant_price_trace(0.40),
        )
        eco.admit_app("a", ShareConfig())
        return eco

    def test_api_getters(self):
        eco = self._eco()
        container = eco.launch_container("a", 1)
        run_ticks(eco, 3, lambda tick: container.set_demand_utilization(1.0))
        state = connect(eco, "a").state()
        assert state.grid_price_usd_per_kwh == pytest.approx(0.40)
        assert state.total_cost_usd == pytest.approx(eco.ledger.app_cost_usd("a"))
        assert state.total_cost_usd > 0.0

    def test_library_cost_query(self):
        eco = self._eco()
        api = connect(eco, "a")
        library = AppEnergyLibrary(api)
        container = eco.launch_container("a", 1)
        run_ticks(eco, 4, lambda tick: container.set_demand_utilization(1.0))
        assert library.get_app_cost() == pytest.approx(eco.ledger.app_cost_usd("a"))
        windowed = library.get_app_cost(0.0, 120.0)
        assert 0.0 < windowed < library.get_app_cost()

    def test_cost_telemetry_series(self):
        eco = self._eco()
        container = eco.launch_container("a", 1)
        run_ticks(eco, 3, lambda tick: container.set_demand_utilization(1.0))
        names = eco.database.series_names()
        assert "grid.price_usd_per_kwh" in names
        assert "app.a.cost_usd" in names
        series = eco.database.series("app.a.cost_usd")
        assert sum(series.values()) == pytest.approx(eco.ledger.app_cost_usd("a"))

    def test_price_change_event_published(self):
        # One 0.10 -> 0.50 step: well above the 0.05 default threshold.
        eco = self._eco(price_trace=PriceTrace([0.10, 0.50]))
        events = []
        eco.events.subscribe(PriceChangeEvent, events.append)
        run_ticks(eco, 10)
        assert len(events) == 1
        assert events[0].previous_usd_per_kwh == pytest.approx(0.10)
        assert events[0].current_usd_per_kwh == pytest.approx(0.50)
        assert events[0].delta_usd_per_kwh == pytest.approx(0.40)

    def test_price_change_event_fires_off_the_zero_floor(self):
        """Real-time prices floor at 0.0; a spike off the floor must
        still publish (0.0 is a real sample, not 'no previous')."""
        eco = self._eco(price_trace=PriceTrace([0.0, 0.9]))
        events = []
        eco.events.subscribe(PriceChangeEvent, events.append)
        run_ticks(eco, 10)
        assert len(events) == 1
        assert events[0].previous_usd_per_kwh == 0.0
        assert events[0].current_usd_per_kwh == pytest.approx(0.9)

    def test_flat_price_publishes_no_change_events(self):
        eco = self._eco()
        run_ticks(eco, 10)
        assert eco.events.published_count(PriceChangeEvent) == 0

    def test_library_notify_price_change(self):
        eco = self._eco(price_trace=PriceTrace([0.10, 0.50]))
        seen = []
        connect(eco, "a").signals.on(PriceChange, seen.append)
        run_ticks(eco, 10)
        assert len(seen) == 1
