"""Virtual energy system settlement: the paper's fixed routing order."""

import math

import pytest

from repro.core.config import BatteryConfig, ShareConfig
from repro.core.units import power_w
from repro.core.virtual_battery import VirtualBattery
from repro.core.virtual_energy_system import VirtualEnergySystem
from repro.energy.battery import Battery

HOUR = 3600.0


def make_ves(
    solar_fraction=1.0,
    battery_fraction=0.5,
    grid_power_w=float("inf"),
    battery_config=None,
) -> VirtualEnergySystem:
    config = battery_config or BatteryConfig(
        capacity_wh=100.0,
        empty_soc_fraction=0.30,
        charge_efficiency=1.0,
        discharge_efficiency=1.0,
        initial_soc_fraction=0.50,
    )
    battery = (
        VirtualBattery(config, battery_fraction) if battery_fraction > 0 else None
    )
    share = ShareConfig(
        solar_fraction=solar_fraction,
        battery_fraction=battery_fraction,
        grid_power_w=grid_power_w,
    )
    return VirtualEnergySystem("app", share, battery)


class TestSolarFirst:
    def test_solar_covers_demand(self):
        ves = make_ves()
        ves.update_solar(20.0)
        s = ves.settle(10.0, 200.0, 0.0, HOUR)
        assert s.solar_used_wh == pytest.approx(10.0)
        assert s.battery_discharge_wh == 0.0
        assert s.grid_load_wh == 0.0
        assert s.carbon_g >= 0.0

    def test_solar_share_applied(self):
        ves = make_ves(solar_fraction=0.25)
        visible = ves.update_solar(40.0)
        assert visible == pytest.approx(10.0)
        assert ves.solar_power_w == pytest.approx(10.0)

    def test_zero_solar_app(self):
        ves = make_ves(solar_fraction=0.0)
        assert ves.update_solar(100.0) == 0.0


class TestBatterySecond:
    def test_deficit_drawn_from_battery(self):
        ves = make_ves()
        ves.update_solar(4.0)
        s = ves.settle(10.0, 200.0, 0.0, HOUR)
        assert s.solar_used_wh == pytest.approx(4.0)
        assert s.battery_discharge_wh == pytest.approx(6.0)
        assert s.grid_load_wh == 0.0

    def test_app_discharge_cap_respected(self):
        ves = make_ves()
        ves.battery.set_max_discharge(2.0)
        ves.update_solar(0.0)
        s = ves.settle(10.0, 200.0, 0.0, HOUR)
        assert s.battery_discharge_wh == pytest.approx(2.0)
        assert s.grid_load_wh == pytest.approx(8.0)

    def test_empty_battery_passes_to_grid(self):
        ves = make_ves()
        ves.update_solar(0.0)
        ves.settle(50.0, 200.0, 0.0, HOUR)  # drain the 10 Wh usable share
        s = ves.settle(10.0, 200.0, HOUR, HOUR)
        assert s.battery_discharge_wh == pytest.approx(0.0)
        assert s.grid_load_wh == pytest.approx(10.0)


class TestGridLast:
    def test_grid_covers_residual_and_is_attributed(self):
        ves = make_ves(battery_fraction=0.0)
        ves.update_solar(4.0)
        s = ves.settle(10.0, 500.0, 0.0, HOUR)
        assert s.grid_load_wh == pytest.approx(6.0)
        # 6 Wh at 500 g/kWh = 3 g.
        assert s.carbon_g == pytest.approx(3.0)

    def test_grid_share_limits_supply(self):
        ves = make_ves(battery_fraction=0.0, grid_power_w=2.0)
        ves.update_solar(0.0)
        s = ves.settle(10.0, 200.0, 0.0, HOUR)
        assert s.grid_load_wh == pytest.approx(2.0)
        assert s.unmet_wh == pytest.approx(8.0)

    def test_zero_grid_share_means_zero_carbon(self):
        ves = make_ves(grid_power_w=0.0, battery_fraction=0.0)
        ves.update_solar(2.0)
        s = ves.settle(10.0, 500.0, 0.0, HOUR)
        assert s.carbon_g == 0.0
        assert s.unmet_wh == pytest.approx(8.0)


class TestExcessSolar:
    def test_excess_charges_battery(self):
        ves = make_ves()
        ves.update_solar(10.0)
        s = ves.settle(4.0, 200.0, 0.0, HOUR)
        assert s.solar_to_battery_wh == pytest.approx(6.0)
        assert s.curtailed_wh == pytest.approx(0.0)

    def test_excess_beyond_charge_rate_curtailed(self):
        ves = make_ves()
        # Physical charge limit of the 50% share is 12.5 W.
        ves.update_solar(40.0)
        s = ves.settle(4.0, 200.0, 0.0, HOUR)
        assert s.solar_to_battery_wh == pytest.approx(12.5)
        assert s.curtailed_wh == pytest.approx(23.5)

    def test_full_battery_curtails(self):
        ves = make_ves()
        ves.update_solar(40.0)
        for i in range(4):  # fill the 50 Wh share
            ves.settle(0.0, 200.0, i * HOUR, HOUR)
        assert ves.battery.is_full
        s = ves.settle(0.0, 200.0, 10 * HOUR, HOUR)
        assert s.solar_to_battery_wh == pytest.approx(0.0)
        assert s.curtailed_wh == pytest.approx(40.0)

    def test_no_battery_curtails_all_excess(self):
        ves = make_ves(battery_fraction=0.0)
        ves.update_solar(10.0)
        s = ves.settle(4.0, 200.0, 0.0, HOUR)
        assert s.curtailed_wh == pytest.approx(6.0)


class TestGridSupplementedCharging:
    def test_charge_rate_tops_up_from_grid(self):
        ves = make_ves()
        ves.battery.set_charge_rate(10.0)
        ves.update_solar(4.0)
        s = ves.settle(0.0, 200.0, 0.0, HOUR)
        # 4 W of solar excess + 6 W grid top-up to reach the 10 W target.
        assert s.solar_to_battery_wh == pytest.approx(4.0)
        assert s.grid_to_battery_wh == pytest.approx(6.0)
        assert s.carbon_g == pytest.approx(6.0 / 1000.0 * 200.0)

    def test_no_top_up_when_solar_exceeds_rate(self):
        ves = make_ves()
        ves.battery.set_charge_rate(3.0)
        ves.update_solar(10.0)
        s = ves.settle(0.0, 200.0, 0.0, HOUR)
        assert s.grid_to_battery_wh == pytest.approx(0.0)

    def test_grid_share_limits_top_up(self):
        ves = make_ves(grid_power_w=2.0)
        ves.battery.set_charge_rate(10.0)
        ves.update_solar(0.0)
        s = ves.settle(0.0, 200.0, 0.0, HOUR)
        assert s.grid_to_battery_wh == pytest.approx(2.0)


class TestBookkeeping:
    def test_grid_power_reading_after_settle(self):
        ves = make_ves(battery_fraction=0.0)
        ves.update_solar(0.0)
        ves.settle(7.0, 200.0, 0.0, HOUR)
        assert ves.grid_power_w == pytest.approx(7.0)

    def test_negative_demand_rejected(self):
        ves = make_ves()
        with pytest.raises(ValueError):
            ves.settle(-1.0, 200.0, 0.0, HOUR)



class TestTickDuration:
    """Each entry point that divides by a tick's duration refuses a NaN
    one, as :class:`~repro.core.clock.TickInfo` does, instead of
    answering NaN; settle refuses a zero one up front too, which a
    battery-free tenant used to settle to zeros."""

    @pytest.mark.parametrize(
        "entry, duration_s",
        [
            ("power_w", math.nan),
            ("charge", math.nan),
            ("discharge", math.nan),
            ("settle", math.nan),
            ("settle", 0.0),
        ],
    )
    def test_refused(self, entry, duration_s):
        battery = Battery(BatteryConfig(capacity_wh=100.0))
        calls = {
            "power_w": lambda: power_w(1.0, duration_s),
            "charge": lambda: battery.charge(1.0, duration_s),
            "discharge": lambda: battery.discharge(1.0, duration_s),
            "settle": lambda: make_ves(battery_fraction=0.0).settle(
                5.0, 200.0, 0.0, duration_s
            ),
        }
        with pytest.raises(ValueError, match="duration must be positive"):
            calls[entry]()
        assert battery.level_wh == 50.0
        assert battery.total_charged_wh == battery.total_discharged_wh == 0.0
