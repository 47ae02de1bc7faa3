"""In-memory time-series database.

The prototype stores historical power and carbon data in InfluxDB so the
ecovisor can answer "sophisticated queries over historical data" (paper
Section 3.1).  This class provides that capability in-process: named
series of (time, value) points with interval queries, aggregation, and
trapezoidal power-to-energy integration.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.errors import TraceError
from repro.core.units import SECONDS_PER_HOUR


class Series:
    """One append-only time series with monotonically increasing times.

    Appends are amortized O(1): points land in plain Python lists, and
    the numpy views handed out by :meth:`times`/:meth:`values` are built
    lazily and cached until the next append — per-tick telemetry writes
    never pay a list-to-array conversion, and repeated reads (exports,
    ``to_rows`` alignment) reuse one immutable array instead of
    re-materializing it per call.  Series only grow, so a cached array
    is current exactly when its length matches the point count; appends
    never touch the cache.
    """

    __slots__ = ("_name", "_times", "_values", "_times_arr", "_values_arr")

    def __init__(self, name: str):
        self._name = name
        self._times: List[float] = []
        self._values: List[float] = []
        self._times_arr: np.ndarray | None = None
        self._values_arr: np.ndarray | None = None

    @property
    def name(self) -> str:
        return self._name

    def __len__(self) -> int:
        return len(self._times)

    def append(self, time_s: float, value: float) -> None:
        times = self._times
        if times and time_s < times[-1]:
            self._non_monotonic(time_s)
        times.append(float(time_s))
        self._values.append(float(value))

    def _non_monotonic(self, time_s: float) -> None:
        raise TraceError(
            f"series {self._name!r}: non-monotonic append "
            f"({time_s} after {self._times[-1]})"
        )

    @staticmethod
    def append_column(
        column: Sequence["Series"], time_s: float, values: Sequence[float]
    ) -> None:
        """Append the point ``(time_s, values[k])`` to ``column[k]``, for all k.

        The bulk form of :meth:`append` for a writer holding one value
        per series at one timestamp: the columnar telemetry write-back
        appends a whole metric column of a tick (one series per tenant
        or container) in one call.  ``values`` may be an ndarray.  Every
        series is checked before any is written, with :meth:`append`'s
        per-point monotonicity error.
        """
        t = float(time_s)
        for series in column:
            times = series._times
            if times and t < times[-1]:
                series._non_monotonic(t)
        for series, value in zip(column, np.asarray(values, dtype=float).tolist()):
            series._times.append(t)
            series._values.append(value)

    def latest(self) -> Tuple[float, float]:
        if not self._times:
            raise TraceError(f"series {self._name!r} is empty")
        return self._times[-1], self._values[-1]

    def window(self, start_s: float, end_s: float) -> Tuple[np.ndarray, np.ndarray]:
        """Points with start_s <= time < end_s as (times, values) arrays."""
        lo = bisect.bisect_left(self._times, start_s)
        hi = bisect.bisect_left(self._times, end_s)
        return self.times()[lo:hi], self.values()[lo:hi]

    def times(self) -> np.ndarray:
        """All timestamps as a read-only array (cached between appends)."""
        arr = self._times_arr
        if arr is None or len(arr) != len(self._times):
            arr = self._times_arr = _frozen(self._times)
        return arr

    def values(self) -> np.ndarray:
        """All values as a read-only array (cached between appends)."""
        arr = self._values_arr
        if arr is None or len(arr) != len(self._values):
            arr = self._values_arr = _frozen(self._values)
        return arr


def _frozen(points: List[float]) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    arr.flags.writeable = False
    return arr


class TimeSeriesDatabase:
    """Named series with interval queries and aggregation.

    A writer that buffers points (the ecovisor's columnar tick path) can
    install a *flush hook*: a zero-argument callable invoked before any
    read or handle resolution, so buffered points land before consumers
    observe the database.  ``Series.append`` itself is hook-free — cached
    handles held by per-tick writers stay on the fast path.
    """

    def __init__(self):
        self._series: Dict[str, Series] = {}
        self._flush_hook = None

    def set_flush_hook(self, hook) -> None:
        """Install (or clear, with None) the pre-read flush callable."""
        self._flush_hook = hook

    def _flush(self) -> None:
        if self._flush_hook is not None:
            self._flush_hook()

    def record(self, name: str, time_s: float, value: float) -> None:
        """Append one point to series ``name`` (created on first write)."""
        self.series_handle(name).append(time_s, value)

    def series_handle(self, name: str) -> Series:
        """The (auto-created) series, for hot-path callers to hold onto.

        Per-tick writers (the power monitor, the ecovisor's settlement
        telemetry) cache these handles so the hot loop appends directly
        instead of re-resolving ``name`` every tick.
        """
        self._flush()
        series = self._series.get(name)
        if series is None:
            series = Series(name)
            self._series[name] = series
        return series

    def has_series(self, name: str) -> bool:
        self._flush()
        return name in self._series

    def series_names(self) -> List[str]:
        self._flush()
        return sorted(self._series)

    def series(self, name: str) -> Series:
        self._flush()
        try:
            return self._series[name]
        except KeyError:
            raise TraceError(f"no such series: {name!r}") from None

    def latest(self, name: str, default: float | None = None) -> float:
        """Most recent value of a series, or ``default`` if empty/missing."""
        self._flush()
        series = self._series.get(name)
        if series is None or len(series) == 0:
            if default is None:
                raise TraceError(f"series {name!r} has no data")
            return default
        return series.latest()[1]

    def window(
        self, name: str, start_s: float, end_s: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        return self.series(name).window(start_s, end_s)

    def mean(self, name: str, start_s: float, end_s: float) -> float:
        """Mean of values in the window; zero when the window is empty."""
        _, values = self.window(name, start_s, end_s)
        if len(values) == 0:
            return 0.0
        return float(values.mean())

    def total(self, name: str, start_s: float, end_s: float) -> float:
        """Sum of values in the window (for per-tick increment series)."""
        _, values = self.window(name, start_s, end_s)
        return float(values.sum())

    def percentile(self, name: str, q: float, start_s: float, end_s: float) -> float:
        """Percentile of values in the window; NaN when empty."""
        _, values = self.window(name, start_s, end_s)
        if len(values) == 0:
            return float("nan")
        return float(np.percentile(values, q))

    def integrate_power_wh(self, name: str, start_s: float, end_s: float) -> float:
        """Integrate a power series (W) over the window into energy (Wh).

        Uses left-rectangle integration matching the simulator's
        discretization: each sample holds for one tick interval.
        """
        times, values = self.window(name, start_s, end_s)
        if len(times) == 0:
            return 0.0
        if len(times) == 1:
            return float(values[0] * (end_s - times[0]) / SECONDS_PER_HOUR)
        widths = np.diff(times)
        last_width = end_s - times[-1]
        energy = float(np.dot(values[:-1], widths) + values[-1] * last_width)
        return energy / SECONDS_PER_HOUR

    def to_rows(self, names: Sequence[str]) -> List[Tuple[float, ...]]:
        """Align several series on the first one's timestamps (for export)."""
        if not names:
            return []
        base = self.series(names[0])
        base_times = base.times()
        base_values = base.values()
        others = [
            (self.series(name).times().tolist(), self.series(name).values())
            for name in names[1:]
        ]
        rows = []
        for i, t in enumerate(base_times):
            row = [float(t), float(base_values[i])]
            for times, values in others:
                idx = min(bisect.bisect_right(times, t) - 1, len(times) - 1)
                row.append(float(values[idx]) if idx >= 0 else float("nan"))
            rows.append(tuple(row))
        return rows
