"""Unit conversions: the foundation everything else computes with."""

import math
import random
from functools import reduce
from operator import add

import numpy as np
import pytest

from repro.core import units


class TestPowerConversions:
    def test_watts_to_kilowatts(self):
        assert units.watts_to_kilowatts(1500.0) == 1.5

    def test_kilowatts_to_watts(self):
        assert units.kilowatts_to_watts(2.5) == 2500.0

    def test_roundtrip(self):
        assert units.kilowatts_to_watts(units.watts_to_kilowatts(123.4)) == pytest.approx(123.4)


class TestEnergyConversions:
    def test_wh_to_kwh(self):
        assert units.wh_to_kwh(500.0) == 0.5


class TestTimeConversions:
    def test_seconds_to_hours(self):
        assert units.seconds_to_hours(5400.0) == 1.5


class TestEnergyAndPower:
    def test_energy_for_one_hour(self):
        assert units.energy_wh(100.0, 3600.0) == pytest.approx(100.0)

    def test_energy_for_one_minute(self):
        assert units.energy_wh(60.0, 60.0) == pytest.approx(1.0)

    def test_power_from_energy(self):
        assert units.power_w(5.0, 1800.0) == pytest.approx(10.0)

    def test_power_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            units.power_w(5.0, 0.0)

    def test_energy_power_roundtrip(self):
        energy = units.energy_wh(42.0, 600.0)
        assert units.power_w(energy, 600.0) == pytest.approx(42.0)


class TestCarbonMath:
    def test_carbon_grams_basic(self):
        # 1 kWh at 200 g/kWh emits 200 g.
        assert units.carbon_grams(1000.0, 200.0) == pytest.approx(200.0)

    def test_carbon_grams_zero_intensity(self):
        assert units.carbon_grams(1000.0, 0.0) == 0.0

    def test_carbon_rate_basic(self):
        # 1 kW at 360 g/kWh = 360 g/h = 0.1 g/s = 100 mg/s.
        assert units.carbon_rate_mg_per_s(1000.0, 360.0) == pytest.approx(100.0)

    def test_carbon_rate_zero_power(self):
        assert units.carbon_rate_mg_per_s(0.0, 300.0) == 0.0

    def test_power_for_carbon_rate_inverts_rate(self):
        power = 750.0
        intensity = 240.0
        rate = units.carbon_rate_mg_per_s(power, intensity)
        assert units.power_for_carbon_rate(rate, intensity) == pytest.approx(power)

    def test_power_for_carbon_rate_carbon_free_grid(self):
        assert units.power_for_carbon_rate(10.0, 0.0) == math.inf


class TestClamp:
    def test_clamp_inside(self):
        assert units.clamp(0.5, 0.0, 1.0) == 0.5

    def test_clamp_below(self):
        assert units.clamp(-1.0, 0.0, 1.0) == 0.0

    def test_clamp_above(self):
        assert units.clamp(2.0, 0.0, 1.0) == 1.0

    def test_clamp_empty_interval(self):
        with pytest.raises(ValueError):
            units.clamp(0.5, 1.0, 0.0)


class TestSequentialSum:
    """Left to right from int 0: the bits builtin ``sum`` gave through
    Python 3.11, on every interpreter."""

    def test_no_compensation(self):
        # Compensated summation (``sum`` on 3.12+) gives 3.0 here.
        values = [1e16, 1.0, -1e16] * 3
        assert units.sequential_sum(values) == 0.0
        assert units.sequential_sum(np.array(values)) == 0.0

    def test_empty_is_int_zero(self):
        for empty in ([], iter(()), np.zeros(0)):
            result = units.sequential_sum(empty)
            assert result == 0 and type(result) is int

    def test_array_accumulate_matches_the_loop(self):
        rng = random.Random(2023)
        for _ in range(2000):
            values = [
                rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-3, 17)
                for _ in range(rng.randint(1, 60))
            ]
            expected = reduce(add, values, 0)
            for got in (units.sequential_sum(values), units.sequential_sum(np.array(values))):
                assert got == expected and type(got) is float
                assert math.copysign(1.0, got) == math.copysign(1.0, expected)

    def test_negative_zeros_sum_to_zero(self):
        for values in ([-0.0], [-0.0, -0.0]):
            for form in (values, np.array(values)):
                assert math.copysign(1.0, units.sequential_sum(form)) == 1.0


class TestFormatDuration:
    def test_seconds_only(self):
        assert units.format_duration(42) == "42s"

    def test_minutes_and_seconds(self):
        assert units.format_duration(90) == "1m 30s"

    def test_hours(self):
        assert units.format_duration(3660) == "1h 1m"

    def test_days(self):
        assert units.format_duration(90000) == "1d 1h"

    def test_zero(self):
        assert units.format_duration(0) == "0s"
