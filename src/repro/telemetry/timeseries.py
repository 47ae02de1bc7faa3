"""In-memory time-series database.

The prototype stores historical power and carbon data in InfluxDB so the
ecovisor can answer "sophisticated queries over historical data" (paper
Section 3.1).  This class provides that capability in-process: named
series of (time, value) points with interval queries, aggregation, and
trapezoidal power-to-energy integration.

Two writers fill it.  Per-point writers (the object tick path, the power
monitor, workloads) call :meth:`Series.append`.  The columnar tick path
buffers whole ticks and, on the first read, appends them as *frames*
(:meth:`TimeSeriesDatabase.append_frame`): one column-major block per
metric, of which each series adopts its column as a read-only chunk, so
a day of ticks lands as a block copy instead of a point-by-point replay
(a frame of only a few ticks is copied into the series' per-point tails
instead).  A series keeps its chunks and its tail in time order and
reads them back as one array.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.errors import TraceError
from repro.core.units import SECONDS_PER_HOUR


class Series:
    """One append-only time series with monotonically increasing times.

    Points live in read-only array *chunks*, in time order, plus an open
    *tail*.  Per-point :meth:`append` (the object path, the power
    monitor, workloads) fills the tail's plain lists, so a per-tick
    writer never pays an array conversion; the columnar write-back
    appends frames (:meth:`TimeSeriesDatabase.append_frame`), whose
    columns a series adopts as chunks without touching a point (or, for
    a frame of a few ticks, copies into its tail).  Chunks merge as they
    come (see :meth:`_push`), so a series holds O(log n) of them.  The
    first :meth:`times`/:meth:`values` after a write seals the tail and
    concatenates the chunks into one pair of arrays, which stays the
    series' only chunk, so repeated reads (exports, ``to_rows``
    alignment) hand out the same immutable arrays until the next write.
    """

    __slots__ = ("_name", "_chunks", "_sealed", "_end", "_times", "_values")

    def __init__(self, name: str):
        self._name = name
        # (times, values) array pairs in time order, their point count,
        # and the last sealed time (-inf while there is none).  A tuple,
        # and the tail lists made on first append, so a series filled by
        # frames alone allocates nothing the garbage collector tracks
        # beyond itself.
        self._chunks: Tuple[Tuple[np.ndarray, np.ndarray], ...] = ()
        self._sealed = 0
        self._end = -math.inf
        self._times: List[float] = _NO_TAIL
        self._values: List[float] = _NO_TAIL

    @property
    def name(self) -> str:
        return self._name

    def __len__(self) -> int:
        return self._sealed + len(self._times)

    def append(self, time_s: float, value: float) -> None:
        times = self._times
        if times:
            if time_s < times[-1]:
                _non_monotonic(self._name, time_s, times[-1])
        else:
            if time_s < self._end:
                _non_monotonic(self._name, time_s, self._end)
            times = self._times = []
            self._values = []
        times.append(float(time_s))
        self._values.append(float(value))

    def _last_time(self) -> float:
        return self._times[-1] if self._times else self._end

    def _extend(self, times: List[float], values: List[float]) -> None:
        """Append checked points to the tail."""
        if not self._times:
            self._times, self._values = [], []
        self._times.extend(times)
        self._values.extend(values)

    def _attach(self, times: np.ndarray, values: np.ndarray) -> None:
        """Append checked, read-only points as a chunk."""
        if self._times:
            self._seal_tail()
        self._push(times, values)

    def _seal_tail(self) -> None:
        times, values = _read_only(self._times), _read_only(self._values)
        self._times = self._values = _NO_TAIL
        self._push(times, values)

    def _push(self, times: np.ndarray, values: np.ndarray) -> None:
        """Add a chunk, then merge the last chunks into one until each
        chunk is more than twice as long as the next.

        A series thus holds O(log n) chunks however often it is written
        back unread, and an older chunk merges only with at least half
        its own length, so each point is copied O(log n) times.
        """
        chunks = self._chunks + ((times, values),)
        first, total = len(chunks) - 1, len(times)
        while first and len(chunks[first - 1][0]) <= 2 * total:
            first -= 1
            total += len(chunks[first][0])
        if first < len(chunks) - 1:
            chunks = chunks[:first] + (_concatenate(chunks[first:]),)
        self._chunks = chunks
        self._sealed += len(times)
        self._end = times.item(-1)

    def _arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every point as one (times, values) pair of read-only arrays."""
        if self._times:
            self._seal_tail()
        chunks = self._chunks
        if len(chunks) == 1:
            return chunks[0]
        if not chunks:
            return _EMPTY, _EMPTY
        merged = _concatenate(chunks)
        self._chunks = (merged,)
        return merged

    def latest(self) -> Tuple[float, float]:
        if self._times:
            return self._times[-1], self._values[-1]
        if not self._chunks:
            raise TraceError(f"series {self._name!r} is empty")
        times, values = self._chunks[-1]
        return times.item(-1), values.item(-1)

    def window(self, start_s: float, end_s: float) -> Tuple[np.ndarray, np.ndarray]:
        """Points with start_s <= time < end_s as (times, values) arrays."""
        times, values = self._arrays()
        lo, hi = np.searchsorted(times, (start_s, end_s), side="left").tolist()
        return times[lo:hi], values[lo:hi]

    def times(self) -> np.ndarray:
        """All timestamps as a read-only array (the same one between writes)."""
        return self._arrays()[0]

    def values(self) -> np.ndarray:
        """All values as a read-only array (the same one between writes)."""
        return self._arrays()[1]


def _non_monotonic(name: str, time_s: float, last: float) -> None:
    raise TraceError(f"series {name!r}: non-monotonic append ({time_s} after {last})")


def _read_only(points) -> np.ndarray:
    """``points`` as a read-only float array (an ndarray is not copied)."""
    arr = np.asarray(points, dtype=float)
    arr.flags.writeable = False
    return arr


def _concatenate(chunks) -> Tuple[np.ndarray, np.ndarray]:
    """Several (times, values) chunks as one read-only pair."""
    return (
        _read_only(np.concatenate([chunk[0] for chunk in chunks])),
        _read_only(np.concatenate([chunk[1] for chunk in chunks])),
    )


_EMPTY = _read_only(())

#: The tail of a series that has none (shared; replaced on first append).
_NO_TAIL: List[float] = ()  # type: ignore[assignment]

#: The fewest points per series of a frame whose stretches the series
#: adopt as chunks; a frame with fewer is copied into the tails.
_MIN_CHUNK = 16


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

    def append_frame(
        self,
        names: Sequence[str],
        bounds: Sequence[int],
        times: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Append points ``bounds[k]:bounds[k + 1]`` of a frame to ``names[k]``.

        The bulk form of :meth:`Series.append` for a writer holding a
        whole stretch of ticks (the ecovisor's columnar write-back, which
        calls it from the flush hook, so this method runs no hook).  A
        frame is column-major: series ``k`` owns one contiguous stretch
        of ``times`` and ``values``, which it keeps as a read-only view
        (the arrays are adopted and made read-only, not copied), unless
        the frame holds fewer than ``_MIN_CHUNK`` points per series: then
        each series copies its stretch into its tail, as a backlog of a
        few ticks costs less as per-point floats than as chunks.  All or
        nothing: if some series would step back in time, this raises
        :meth:`Series.append`'s non-monotonic :class:`TraceError` for
        the first such series in ``names`` order, at its first such
        point, and writes nothing.
        """
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        bounds = list(bounds)
        table = self._series
        handles = [table.get(name) for name in names]
        # The first point that steps back inside a stretch, and its series;
        # the series before it (and that one) check their first point.
        inner, step = len(names), None
        stretch_starts = set(bounds)
        for point in np.flatnonzero(times[1:] < times[:-1]).tolist():
            if point + 1 not in stretch_starts:
                step = point + 1
                inner = bisect.bisect_right(bounds, step) - 1
                break
        for k in range(min(inner + 1, len(names))):
            series = handles[k]
            if series is not None and bounds[k] < bounds[k + 1]:
                first, last = times.item(bounds[k]), series._last_time()
                if first < last:
                    _non_monotonic(names[k], first, last)
        if step is not None:
            _non_monotonic(names[inner], times.item(step), times.item(step - 1))
        if len(times) < _MIN_CHUNK * len(names):
            # A few points per series (a backlog of a few ticks): copied
            # into the tails, at the cost of per-point appends.
            times, values = times.tolist(), values.tolist()
            attach = Series._extend
        else:
            times, values = _read_only(times), _read_only(values)
            attach = Series._attach
        for name, series, start, stop in zip(names, handles, bounds, bounds[1:]):
            if start == stop:
                continue
            if series is None:
                series = table[name] = Series(name)
            attach(series, times[start:stop], values[start:stop])

    def series_handle(self, name: str) -> Series:
        """The (auto-created) series, for hot-path callers to hold onto.

        Per-tick writers (the power monitor, the ecovisor's settlement
        telemetry, web applications) cache these handles so the hot loop
        appends directly instead of re-resolving ``name`` every tick,
        which would also run the flush hook every tick.
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
