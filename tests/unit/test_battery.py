"""Physical battery model: SoC tracking, rate limits, DoD floor, losses."""

import pytest

from repro.energy.battery import Battery

HOUR = 3600.0


class TestInitialState:
    def test_initial_level(self, small_battery_config):
        battery = Battery(small_battery_config)
        assert battery.level_wh == pytest.approx(50.0)
        assert battery.soc_fraction == pytest.approx(0.50)

    def test_usable_excludes_floor(self, small_battery_config):
        battery = Battery(small_battery_config)
        # 50 Wh stored, 30 Wh protected: 20 Wh usable.
        assert battery.usable_wh == pytest.approx(20.0)
        assert battery.usable_capacity_wh == pytest.approx(70.0)

    def test_headroom(self, small_battery_config):
        battery = Battery(small_battery_config)
        assert battery.headroom_wh == pytest.approx(50.0)

    def test_rate_limits_from_c_rates(self, small_battery_config):
        battery = Battery(small_battery_config)
        assert battery.max_charge_power_w == pytest.approx(25.0)
        assert battery.max_discharge_power_w == pytest.approx(100.0)


class TestCharging:
    def test_charge_stores_energy(self, small_battery_config):
        battery = Battery(small_battery_config)
        accepted = battery.charge(10.0, HOUR)
        assert accepted == pytest.approx(10.0)
        assert battery.level_wh == pytest.approx(60.0)

    def test_charge_rate_limited(self, small_battery_config):
        battery = Battery(small_battery_config)
        accepted = battery.charge(100.0, HOUR)
        assert accepted == pytest.approx(25.0)  # 0.25C cap

    def test_charge_stops_at_full(self, small_battery_config):
        battery = Battery(small_battery_config)
        battery.charge(25.0, 2 * HOUR)  # stores 50 Wh -> full
        assert battery.is_full
        assert battery.charge(25.0, HOUR) == pytest.approx(0.0)

    def test_charge_efficiency_loss(self, lossy_battery_config):
        battery = Battery(lossy_battery_config)
        battery.charge(10.0, HOUR)
        # 10 Wh in, 9 Wh stored.
        assert battery.level_wh == pytest.approx(59.0)

    def test_charge_rejects_negative_power(self, small_battery_config):
        with pytest.raises(ValueError):
            Battery(small_battery_config).charge(-1.0, HOUR)

    def test_charge_rejects_nonpositive_duration(self, small_battery_config):
        with pytest.raises(ValueError):
            Battery(small_battery_config).charge(1.0, 0.0)


class TestDischarging:
    def test_discharge_delivers_energy(self, small_battery_config):
        battery = Battery(small_battery_config)
        delivered = battery.discharge(10.0, HOUR)
        assert delivered == pytest.approx(10.0)
        assert battery.level_wh == pytest.approx(40.0)

    def test_discharge_stops_at_floor(self, small_battery_config):
        battery = Battery(small_battery_config)
        delivered = battery.discharge(100.0, HOUR)
        # Only 20 Wh usable above the 30% floor.
        assert delivered * 1.0 == pytest.approx(20.0)
        assert battery.is_empty
        assert battery.level_wh == pytest.approx(30.0)

    def test_empty_battery_delivers_nothing(self, small_battery_config):
        battery = Battery(small_battery_config)
        battery.discharge(100.0, HOUR)
        assert battery.discharge(10.0, HOUR) == pytest.approx(0.0)

    def test_discharge_efficiency_loss(self, lossy_battery_config):
        battery = Battery(lossy_battery_config)
        delivered = battery.discharge(9.0, HOUR)
        assert delivered == pytest.approx(9.0)
        # Delivering 9 Wh drains 10 Wh from the store.
        assert battery.level_wh == pytest.approx(40.0)

    def test_discharge_rejects_negative_power(self, small_battery_config):
        with pytest.raises(ValueError):
            Battery(small_battery_config).discharge(-1.0, HOUR)


class TestEnergyWindows:
    def test_max_discharge_energy_rate_limited(self, small_battery_config):
        battery = Battery(small_battery_config)
        # One minute at 1C (100 W) = 1.667 Wh, less than the 20 Wh stock.
        assert battery.max_discharge_energy_wh(60.0) == pytest.approx(100.0 / 60.0)

    def test_max_discharge_energy_stock_limited(self, small_battery_config):
        battery = Battery(small_battery_config)
        assert battery.max_discharge_energy_wh(HOUR) == pytest.approx(20.0)

    def test_max_charge_energy_headroom_limited(self, small_battery_config):
        battery = Battery(small_battery_config)
        assert battery.max_charge_energy_wh(4 * HOUR) == pytest.approx(50.0)


class TestWearAccounting:
    def test_meters_accumulate(self, small_battery_config):
        battery = Battery(small_battery_config)
        battery.charge(10.0, HOUR)
        battery.discharge(5.0, HOUR)
        assert battery.total_charged_wh == pytest.approx(10.0)
        assert battery.total_discharged_wh == pytest.approx(5.0)


class TestWriteEpoch:
    """Every write to the stored energy moves ``Battery._write_epoch``,
    the key of the columnar settle kernel's battery mirrors."""

    @pytest.mark.parametrize(
        "write",
        [
            lambda b: b.charge(10.0, HOUR),
            lambda b: b.discharge(10.0, HOUR),
            lambda b: b.set_level_wh(40.0),
        ],
        ids=["charge", "discharge", "set_level_wh"],
    )
    def test_write_bumps_epoch(self, small_battery_config, write):
        battery = Battery(small_battery_config)
        before = Battery._write_epoch
        write(battery)
        assert Battery._write_epoch > before
