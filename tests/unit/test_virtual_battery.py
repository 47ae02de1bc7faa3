"""Virtual battery shares and their control knobs."""

import pytest

from repro.core.virtual_battery import VirtualBattery, scaled_battery_config
from repro.energy.battery import Battery

HOUR = 3600.0


class TestScaledConfig:
    def test_capacity_scales(self, small_battery_config):
        scaled = scaled_battery_config(small_battery_config, 0.5)
        assert scaled.capacity_wh == pytest.approx(50.0)

    def test_rate_limits_scale_via_capacity(self, small_battery_config):
        scaled = scaled_battery_config(small_battery_config, 0.5)
        # C-rates are unchanged; absolute power scales with capacity.
        assert scaled.max_discharge_power_w == pytest.approx(50.0)
        assert scaled.max_charge_power_w == pytest.approx(12.5)

    def test_shares_sum_within_physical_limits(self, small_battery_config):
        a = scaled_battery_config(small_battery_config, 0.6)
        b = scaled_battery_config(small_battery_config, 0.4)
        physical = small_battery_config
        assert (
            a.max_discharge_power_w + b.max_discharge_power_w
            == pytest.approx(physical.max_discharge_power_w)
        )

    def test_rejects_bad_fraction(self, small_battery_config):
        with pytest.raises(ValueError):
            scaled_battery_config(small_battery_config, 0.0)
        with pytest.raises(ValueError):
            scaled_battery_config(small_battery_config, 1.5)


class TestKnobs:
    def test_charge_rate_clamped_to_physical(self, small_battery_config):
        vb = VirtualBattery(small_battery_config, 0.5)
        vb.set_charge_rate(1000.0)
        assert vb.charge_rate_w == pytest.approx(12.5)

    def test_max_discharge_clamped_to_physical(self, small_battery_config):
        vb = VirtualBattery(small_battery_config, 0.5)
        vb.set_max_discharge(1000.0)
        assert vb.max_discharge_w == pytest.approx(50.0)

    def test_defaults(self, small_battery_config):
        vb = VirtualBattery(small_battery_config, 0.5)
        assert vb.charge_rate_w == 0.0
        assert vb.max_discharge_w == pytest.approx(50.0)

    def test_negative_rates_rejected(self, small_battery_config):
        vb = VirtualBattery(small_battery_config, 0.5)
        with pytest.raises(ValueError):
            vb.set_charge_rate(-1.0)
        with pytest.raises(ValueError):
            vb.set_max_discharge(-1.0)


class TestTickOperations:
    def test_discharge_respects_app_cap(self, small_battery_config):
        vb = VirtualBattery(small_battery_config, 1.0)
        vb.set_max_discharge(5.0)
        delivered = vb.discharge_for_tick(20.0, HOUR)
        assert delivered == pytest.approx(5.0)
        assert vb.last_discharge_w == pytest.approx(5.0)

    def test_charge_for_tick(self, small_battery_config):
        vb = VirtualBattery(small_battery_config, 1.0)
        accepted = vb.charge_for_tick(10.0, HOUR)
        assert accepted == pytest.approx(10.0)
        assert vb.last_charge_w == pytest.approx(10.0)

    def test_zero_requests_are_recorded(self, small_battery_config):
        vb = VirtualBattery(small_battery_config, 1.0)
        assert vb.discharge_for_tick(0.0, HOUR) == 0.0
        assert vb.charge_for_tick(0.0, HOUR) == 0.0

    def test_levels_track_underlying_battery(self, small_battery_config):
        vb = VirtualBattery(small_battery_config, 0.5)
        # 50 Wh capacity share at 50% SoC: 25 Wh stored, 10 Wh usable
        # (floor is 15 Wh).
        assert vb.usable_wh == pytest.approx(10.0)
        assert vb.usable_capacity_wh == pytest.approx(35.0)
        assert vb.soc_fraction == pytest.approx(0.5)
        assert not vb.is_full
        assert not vb.is_empty


class TestWriteEpochs:
    """Knob writes move ``VirtualBattery._knob_epoch``; the per-tick
    methods, which write battery state, move ``Battery._write_epoch``.
    The columnar settle kernel keys its mirrors on both."""

    @pytest.mark.parametrize(
        "write",
        [lambda vb: vb.set_charge_rate(5.0), lambda vb: vb.set_max_discharge(5.0)],
        ids=["set_charge_rate", "set_max_discharge"],
    )
    def test_knob_write_bumps_knob_epoch(self, small_battery_config, write):
        vb = VirtualBattery(small_battery_config, 0.5)
        before = VirtualBattery._knob_epoch
        write(vb)
        assert VirtualBattery._knob_epoch > before

    @pytest.mark.parametrize(
        "write",
        [
            # Zero requests touch no Battery method, so the virtual
            # battery's own bump is what moves the epoch.
            lambda vb: vb.discharge_for_tick(0.0, HOUR),
            lambda vb: vb.charge_for_tick(0.0, HOUR),
            lambda vb: vb.note_tick_charge(3.0),
        ],
        ids=["discharge_for_tick", "charge_for_tick", "note_tick_charge"],
    )
    def test_tick_write_bumps_battery_epoch(self, small_battery_config, write):
        vb = VirtualBattery(small_battery_config, 0.5)
        before = Battery._write_epoch
        write(vb)
        assert Battery._write_epoch > before
