"""Tick settlements and the carbon ledger."""

import dataclasses

import numpy as np
import pytest

from repro.core.accounting import CarbonLedger, TickSettlement
from repro.core.errors import ConfigurationError, EnergyConservationError
from repro.core.fleetarrays import _TickRecord
from repro.core.units import energy_cost_usd


def settlement(
    app="app",
    time_s=0.0,
    demand=10.0,
    solar_avail=4.0,
    solar_used=4.0,
    to_battery=0.0,
    curtailed=0.0,
    battery=2.0,
    grid=4.0,
    grid_to_battery=0.0,
    unmet=0.0,
    carbon=1.0,
) -> TickSettlement:
    return TickSettlement(
        app_name=app,
        time_s=time_s,
        duration_s=60.0,
        carbon_intensity_g_per_kwh=200.0,
        demand_wh=demand,
        served_wh=solar_used + battery + grid,
        unmet_wh=unmet,
        solar_available_wh=solar_avail,
        solar_used_wh=solar_used,
        solar_to_battery_wh=to_battery,
        curtailed_wh=curtailed,
        battery_discharge_wh=battery,
        grid_load_wh=grid,
        grid_to_battery_wh=grid_to_battery,
        carbon_g=carbon,
    )


#: Every energy, carbon and money flow of a settlement.
FLOW_FIELDS = (
    "demand_wh",
    "served_wh",
    "unmet_wh",
    "solar_available_wh",
    "solar_used_wh",
    "solar_to_battery_wh",
    "curtailed_wh",
    "battery_discharge_wh",
    "grid_load_wh",
    "grid_to_battery_wh",
    "carbon_g",
    "price_usd_per_kwh",
    "cost_usd",
)


class TestSettlementValidation:
    def test_balanced_settlement_validates(self):
        settlement().validate()

    def test_detects_solar_imbalance(self):
        bad = settlement(solar_avail=10.0, solar_used=4.0, to_battery=0.0,
                         curtailed=0.0)
        with pytest.raises(EnergyConservationError):
            bad.validate()

    def test_detects_demand_imbalance(self):
        bad = settlement(demand=20.0)
        with pytest.raises(EnergyConservationError):
            bad.validate()

    def test_detects_negative_flow(self):
        bad = settlement(carbon=-1.0)
        with pytest.raises(EnergyConservationError):
            bad.validate()

    @staticmethod
    def _billed():
        base = settlement()
        return dataclasses.replace(
            base,
            price_usd_per_kwh=0.2,
            cost_usd=energy_cost_usd(base.grid_total_wh, 0.2),
        )

    @pytest.mark.parametrize("field", FLOW_FIELDS)
    def test_refuses_nan_flow(self, field):
        billed = self._billed()
        billed.validate()
        bad = dataclasses.replace(billed, **{field: float("nan")})
        with pytest.raises(EnergyConservationError):
            bad.validate()

    def test_nan_in_no_identity_is_named(self):
        bad = dataclasses.replace(self._billed(), carbon_g=float("nan"))
        with pytest.raises(EnergyConservationError, match=r"\['carbon_g'\]"):
            bad.validate()


class TestSettlementDerived:
    def test_grid_total(self):
        s = settlement(grid=4.0, grid_to_battery=2.0, demand=10.0)
        assert s.grid_total_wh == pytest.approx(6.0)

    def test_average_power(self):
        s = settlement()
        # 10 Wh served over 60 s -> 600 W.
        assert s.average_power_w == pytest.approx(600.0)

    def test_carbon_rate(self):
        s = settlement(carbon=0.6)
        # 0.6 g over 60 s = 10 mg/s.
        assert s.carbon_rate_mg_per_s == pytest.approx(10.0)


class TestLedger:
    def test_record_accumulates(self):
        ledger = CarbonLedger()
        ledger.record(settlement(time_s=0.0))
        ledger.record(settlement(time_s=60.0))
        account = ledger.account("app")
        assert account.energy_wh == pytest.approx(20.0)
        assert account.carbon_g == pytest.approx(2.0)
        assert account.solar_wh == pytest.approx(8.0)
        assert account.battery_wh == pytest.approx(4.0)
        assert account.grid_wh == pytest.approx(8.0)

    def test_record_validates(self):
        ledger = CarbonLedger()
        with pytest.raises(EnergyConservationError):
            ledger.record(settlement(demand=99.0))

    def test_per_app_isolation(self):
        ledger = CarbonLedger()
        ledger.record(settlement(app="a"))
        ledger.record(settlement(app="b", carbon=5.0))
        assert ledger.app_carbon_g("a") == pytest.approx(1.0)
        assert ledger.app_carbon_g("b") == pytest.approx(5.0)
        assert ledger.total_carbon_g() == pytest.approx(6.0)
        assert ledger.app_names() == ["a", "b"]

    def test_interval_queries(self):
        ledger = CarbonLedger()
        for t in (0.0, 60.0, 120.0):
            ledger.record(settlement(time_s=t))
        assert ledger.carbon_between("app", 0.0, 120.0) == pytest.approx(2.0)
        assert ledger.energy_between("app", 60.0, 180.0) == pytest.approx(20.0)
        assert len(ledger.settlements_between("app", 0.0, 1e9)) == 3

    def test_auto_created_account_is_zero(self):
        ledger = CarbonLedger()
        assert ledger.app_carbon_g("new") == 0.0
        assert ledger.total_energy_wh() == 0.0


class TestLedgerValidateFlag:
    def test_record_validates_by_default(self):
        bad = settlement(unmet=5.0)  # demand != served + unmet
        ledger = CarbonLedger()
        with pytest.raises(EnergyConservationError):
            ledger.record(bad)

    def test_record_can_skip_revalidation(self):
        # The ecovisor records settlements the VES already validated;
        # validate=False must accumulate without re-checking.
        bad = settlement(unmet=5.0)
        ledger = CarbonLedger()
        ledger.record(bad, validate=False)
        assert ledger.account("app").unmet_wh == 5.0

    def test_settlement_is_slotted(self):
        s = settlement()
        assert not hasattr(s, "__dict__")
        with pytest.raises(AttributeError):
            object.__setattr__(s, "not_a_field", 1.0)


#: Columnar record column -> the TickSettlement field it carries.
_RECORD_COLUMNS = {
    "demand_wh": "demand_wh",
    "served": "served_wh",
    "unmet": "unmet_wh",
    "solar_avail": "solar_available_wh",
    "solar_used": "solar_used_wh",
    "s2b": "solar_to_battery_wh",
    "curtailed": "curtailed_wh",
    "battery_wh": "battery_discharge_wh",
    "grid_load": "grid_load_wh",
    "g2b": "grid_to_battery_wh",
    "carbon_g": "carbon_g",
    "cost": "cost_usd",
}

_TOTALS = (
    "energy_wh",
    "solar_wh",
    "battery_wh",
    "grid_wh",
    "carbon_g",
    "cost_usd",
    "curtailed_wh",
    "unmet_wh",
)


def _record(tick):
    """The columnar tick record of one tick's settlements (one per tenant)."""
    record = _TickRecord()
    first = tick[0]
    record.time_s = first.time_s
    record.duration_s = first.duration_s
    record.carbon = first.carbon_intensity_g_per_kwh
    record.price = first.price_usd_per_kwh
    for column, name in _RECORD_COLUMNS.items():
        setattr(record, column, np.array([getattr(s, name) for s in tick]))
    return record


def _ticks(names, count):
    """Settlements whose running sums depend on the order they are added."""
    ticks = []
    for k in range(count):
        tick = []
        for i, name in enumerate(names):
            x = 0.1 * (k + 1) + (i + 1) / 3.0
            tick.append(
                TickSettlement(
                    app_name=name,
                    time_s=60.0 * k,
                    duration_s=60.0,
                    carbon_intensity_g_per_kwh=210.0 + k,
                    demand_wh=x + 0.7,
                    served_wh=x + 0.3,
                    unmet_wh=0.4,
                    solar_available_wh=x / 7.0,
                    solar_used_wh=x / 11.0,
                    solar_to_battery_wh=x / 13.0,
                    curtailed_wh=x / 17.0,
                    battery_discharge_wh=x / 19.0,
                    grid_load_wh=x * 0.3,
                    grid_to_battery_wh=x * 0.1 + 1e-17,
                    carbon_g=x * 0.21,
                    price_usd_per_kwh=0.05,
                    cost_usd=x * 1e-5,
                )
            )
        ticks.append(tick)
    return ticks


class TestDeferredSettlements:
    """CarbonLedger.write_back: column totals now, settlements on read."""

    NAMES = ["a", "b", "c"]

    def test_write_back_equals_eager_adds(self):
        ticks = _ticks(self.NAMES, 4)
        eager = CarbonLedger()
        for tick in ticks:
            for s in tick:
                eager.record(s, validate=False)
        deferred = CarbonLedger()
        deferred.write_back(self.NAMES, [_record(tick) for tick in ticks[:3]])
        deferred.write_back(self.NAMES, [_record(ticks[3])])
        for name in self.NAMES:
            want, got = eager.account(name), deferred.account(name)
            for total in _TOTALS:
                assert repr(getattr(got, total)) == repr(getattr(want, total))
            assert [dataclasses.asdict(s) for s in got.settlements] == [
                dataclasses.asdict(s) for s in want.settlements
            ]

    def test_settlements_build_once(self):
        ledger = CarbonLedger()
        ledger.write_back(self.NAMES, [_record(t) for t in _ticks(self.NAMES, 2)])
        account = ledger.account("b")
        built = account.settlements
        assert account.settlements is built
        assert [s.app_name for s in built] == ["b", "b"]

    def test_add_after_write_back_keeps_tick_order(self):
        ticks = _ticks(self.NAMES, 3)
        ledger = CarbonLedger()
        ledger.write_back(self.NAMES, [_record(t) for t in ticks[:2]])
        ledger.record(ticks[2][0], validate=False)
        times = [s.time_s for s in ledger.account("a").settlements]
        assert times == [0.0, 60.0, 120.0]
        eager = CarbonLedger()
        for tick in ticks:
            eager.record(tick[0], validate=False)
        assert repr(ledger.account("a").energy_wh) == repr(
            eager.account("a").energy_wh
        )

    def test_finalized_account_refuses_write_back(self):
        ledger = CarbonLedger()
        ledger.finalize("b")
        records = [_record(t) for t in _ticks(self.NAMES, 2)]
        with pytest.raises(ConfigurationError, match="'b' is finalized"):
            ledger.write_back(self.NAMES, records)
        # Nothing of the batch landed, not even for the open accounts.
        account = ledger.account("a")
        assert account.energy_wh == 0.0
        assert account.settlements == []

    def test_settlements_is_read_only(self):
        account = CarbonLedger().account("a")
        with pytest.raises(AttributeError):
            account.settlements = []
