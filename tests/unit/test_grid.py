"""Grid connection model."""

import pytest

from repro.core.config import GridConfig
from repro.energy.grid import GridConnection


class TestDraw:
    def test_unlimited_grid_grants_everything(self):
        grid = GridConnection()
        assert grid.draw(1234.5, 60.0) == pytest.approx(1234.5)

    def test_limited_grid_clamps(self):
        grid = GridConnection(GridConfig(max_power_w=100.0))
        assert grid.draw(250.0, 60.0) == pytest.approx(100.0)

    def test_metering_accumulates(self):
        grid = GridConnection()
        grid.draw(60.0, 60.0)   # 1 Wh
        grid.draw(120.0, 60.0)  # 2 Wh
        assert grid.total_energy_wh == pytest.approx(3.0)

    def test_rejects_negative_draw(self):
        with pytest.raises(ValueError):
            GridConnection().draw(-1.0, 60.0)

    def test_available_power_is_limit(self):
        grid = GridConnection(GridConfig(max_power_w=42.0))
        assert grid.available_power_w(0.0) == 42.0
