"""Simulation clock.

The ecovisor discretizes and accounts for power over a small tick interval
``delta_t`` (paper Section 3.1, default one minute).  Everything in this
reproduction advances on that clock: the physical energy system is sampled
at tick boundaries, applications receive their ``tick()`` upcall once per
interval, and the settlement of energy and carbon covers exactly one
interval.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import ConfigurationError
from repro.core.units import SECONDS_PER_HOUR, SECONDS_PER_MINUTE, format_duration

DEFAULT_TICK_INTERVAL_S = SECONDS_PER_MINUTE


@dataclass(frozen=True)
class TickInfo:
    """Immutable snapshot describing one tick interval.

    Attributes:
        index: zero-based tick counter.
        start_s: simulation time at the start of the interval (seconds).
        duration_s: interval length (seconds); must be positive, which
            every settlement relies on to turn energy into power.
    """

    index: int
    start_s: float
    duration_s: float

    def __post_init__(self) -> None:
        # Written as a negated comparison so that NaN is refused too.
        if not self.duration_s > 0:
            raise ConfigurationError(
                f"tick duration must be positive, got {self.duration_s}"
            )

    @property
    def end_s(self) -> float:
        """Simulation time at the end of the interval."""
        return self.start_s + self.duration_s

    @property
    def start_hours(self) -> float:
        """Interval start expressed in hours, convenient for trace lookup."""
        return self.start_s / SECONDS_PER_HOUR


class SimulationClock:
    """Monotonic tick-based clock driving the simulation.

    The clock starts at time zero (callers may interpret zero as any
    wall-clock anchor; traces are indexed in seconds-from-start).
    """

    def __init__(self, tick_interval_s: float = DEFAULT_TICK_INTERVAL_S):
        if tick_interval_s <= 0:
            raise ConfigurationError(
                f"tick interval must be positive, got {tick_interval_s}"
            )
        self._tick_interval_s = float(tick_interval_s)
        self._tick_index = 0

    @property
    def tick_interval_s(self) -> float:
        """Length of one tick interval in seconds (the paper's delta-t)."""
        return self._tick_interval_s

    @property
    def tick_index(self) -> int:
        """Number of completed ticks."""
        return self._tick_index

    @property
    def now_s(self) -> float:
        """Current simulation time in seconds."""
        return self._tick_index * self._tick_interval_s

    @property
    def now_hours(self) -> float:
        """Current simulation time in hours."""
        return self.now_s / SECONDS_PER_HOUR

    def current_tick(self) -> TickInfo:
        """Describe the interval that begins at the current time."""
        return TickInfo(
            index=self._tick_index,
            start_s=self.now_s,
            duration_s=self._tick_interval_s,
        )

    def advance(self) -> TickInfo:
        """Advance by one tick and return the interval that just began."""
        self._tick_index += 1
        return self.current_tick()

    def reset(self) -> None:
        """Rewind the clock to time zero (used between experiment runs)."""
        self._tick_index = 0

    def ticks_for_duration(self, duration_s: float) -> int:
        """Number of whole ticks covering ``duration_s`` (rounded up)."""
        if duration_s < 0:
            raise ConfigurationError(f"duration must be >= 0, got {duration_s}")
        whole = int(duration_s // self._tick_interval_s)
        if whole * self._tick_interval_s < duration_s:
            whole += 1
        return whole

    def __repr__(self) -> str:
        return (
            f"SimulationClock(t={format_duration(self.now_s)}, "
            f"tick={self._tick_index}, dt={self._tick_interval_s:g}s)"
        )
