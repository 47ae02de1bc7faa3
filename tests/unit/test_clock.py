"""Simulation clock semantics."""

import pytest

from repro.core.clock import DEFAULT_TICK_INTERVAL_S, SimulationClock, TickInfo
from repro.core.errors import ConfigurationError


class TestConstruction:
    def test_default_interval_is_one_minute(self):
        assert SimulationClock().tick_interval_s == 60.0
        assert DEFAULT_TICK_INTERVAL_S == 60.0

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ConfigurationError):
            SimulationClock(0.0)
        with pytest.raises(ConfigurationError):
            SimulationClock(-1.0)

    def test_rejects_nan_interval(self):
        with pytest.raises(ConfigurationError, match="must be positive"):
            SimulationClock(float("nan"))


class TestAdvance:
    def test_starts_at_zero(self):
        clock = SimulationClock(60.0)
        assert clock.now_s == 0.0
        assert clock.tick_index == 0

    def test_advance_moves_time(self):
        clock = SimulationClock(60.0)
        clock.advance()
        assert clock.now_s == 60.0
        assert clock.tick_index == 1

    def test_now_hours(self):
        clock = SimulationClock(1800.0)
        clock.advance()
        clock.advance()
        assert clock.now_hours == 1.0

    def test_reset(self):
        clock = SimulationClock(60.0)
        for _ in range(5):
            clock.advance()
        clock.reset()
        assert clock.now_s == 0.0
        assert clock.tick_index == 0


class TestTickInfo:
    def test_current_tick_fields(self):
        clock = SimulationClock(30.0)
        clock.advance()
        tick = clock.current_tick()
        assert tick == TickInfo(index=1, start_s=30.0, duration_s=30.0)
        assert tick.end_s == 60.0

    def test_start_hours(self):
        tick = TickInfo(index=0, start_s=1800.0, duration_s=60.0)
        assert tick.start_hours == 0.5

    def test_tickinfo_is_immutable(self):
        tick = TickInfo(index=0, start_s=0.0, duration_s=60.0)
        with pytest.raises(AttributeError):
            tick.start_s = 10.0

    @pytest.mark.parametrize("duration_s", [0.0, -60.0, float("nan")])
    def test_rejects_nonpositive_duration(self, duration_s):
        with pytest.raises(ConfigurationError, match="must be positive"):
            TickInfo(index=0, start_s=0.0, duration_s=duration_s)


class TestTicksForDuration:
    def test_exact_multiple(self):
        assert SimulationClock(60.0).ticks_for_duration(3600.0) == 60

    def test_rounds_up(self):
        assert SimulationClock(60.0).ticks_for_duration(61.0) == 2

    def test_zero_duration(self):
        assert SimulationClock(60.0).ticks_for_duration(0.0) == 0

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationClock(60.0).ticks_for_duration(-5.0)
