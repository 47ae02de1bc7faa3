"""Analysis metric helpers."""

import pytest

from repro.analysis.metrics import energy_efficiency_per_joule, runtime_improvement_pct


class TestRuntimeImprovement:
    def test_basic(self):
        assert runtime_improvement_pct(100.0, 60.0) == pytest.approx(40.0)

    def test_regression_is_negative(self):
        assert runtime_improvement_pct(100.0, 120.0) == pytest.approx(-20.0)

    def test_zero_baseline(self):
        assert runtime_improvement_pct(0.0, 10.0) == 0.0


class TestEnergyEfficiency:
    def test_work_per_joule(self):
        # 3600 units on 1 Wh (3600 J) = 1 unit/J.
        assert energy_efficiency_per_joule(3600.0, 1.0) == pytest.approx(1.0)

    def test_zero_energy(self):
        assert energy_efficiency_per_joule(10.0, 0.0) == 0.0
