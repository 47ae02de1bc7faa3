"""Tick-phase profiler: where does a tick's wall-clock time go?

The engine's run loop is bracketed into six named phases whose
boundaries are consecutive ``perf_counter`` reads, so the phase
durations **partition** the tick exactly — the phase sum equals the
wall-clock tick time by construction:

- ``begin_tick`` — ``Ecovisor.begin_tick``: signal reads, state build,
  grid/solar/battery bookkeeping.
- ``policy_batch`` — grouped policy upcalls through the vectorized
  plane (``core/upcalls.py``): per-class ``on_tick_batch`` kernels and
  staged scale applies.
- ``policy_fallback`` — per-app policy ``on_tick`` callbacks: every
  app the plane routes to the reference path (policies that do not opt
  in, apps with several callbacks, the whole fleet when batching is
  off).  On a mixed
  fleet the plane times the fallback barriers inline, so the two
  sub-phases still sum to the upcall window without double counting.
- ``workload_step`` — per-app workload ``step`` calls.
- ``settle`` — ``Ecovisor.settle``: demand reconciliation, ledger,
  cost settlement.
- ``telemetry_flush`` — ``finish_tick`` fan-out, observers, clock
  advance.

Recording goes to three sinks: a fixed-size ring buffer of per-tick
phase breakdowns (served as JSON by ``GET /v1/metrics/ticks``), one
histogram per phase plus one for the whole tick (rolled up into the
metrics registry), and a bounded slow-tick log retaining the full
breakdown of any tick slower than ``slow_factor`` × the median tick
(median recomputed every 32 ticks so detection costs nothing
per-tick).  The engine records every tick; there is no switch.
Reports take totals, means and shares from the cumulative histograms
and exact p50/p99 from the ticks the ring retains.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.obs.metrics import TICK_PHASE_BUCKETS, Histogram, MetricsRegistry

#: Phase names, in tick order.  These partition the tick exactly.
PHASES: Tuple[str, ...] = (
    "begin_tick",
    "policy_batch",
    "policy_fallback",
    "workload_step",
    "settle",
    "telemetry_flush",
)

#: Recompute the rolling median only every this many ticks.
_MEDIAN_REFRESH_INTERVAL = 32


class TickProfiler:
    """Ring buffer + histogram rollup + slow-tick log for tick phases.

    Parameters
    ----------
    registry:
        Metrics registry receiving the histogram rollups
        (``tick_phase_seconds{phase=...}`` and ``tick_total_seconds``).
        ``None`` keeps the rollups in a private registry.
    ring_size:
        Number of most-recent ticks retained with full phase breakdown.
    slow_factor:
        A tick slower than ``slow_factor`` × the rolling median of
        total tick time is copied into the slow-tick log.
    slow_log_size:
        Bound on the slow-tick log (oldest entries evicted).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        ring_size: int = 512,
        slow_factor: float = 4.0,
        slow_log_size: int = 64,
    ):
        if ring_size <= 0:
            raise ValueError(f"ring_size must be positive, got {ring_size}")
        if slow_factor <= 1.0:
            raise ValueError(f"slow_factor must exceed 1, got {slow_factor}")
        if slow_log_size <= 0:
            raise ValueError(
                f"slow_log_size must be positive, got {slow_log_size}"
            )
        self.ring_size = ring_size
        self.slow_factor = slow_factor
        self.slow_log_size = slow_log_size
        if registry is None:
            registry = MetricsRegistry()
        self.registry = registry
        # Ring layout: one row per tick, columns = tick_index, the six
        # phases, total.  Preallocated; writes are row assignments.
        self._ring = np.zeros((ring_size, len(PHASES) + 2), dtype=np.float64)
        self._ring_next = 0
        self._ring_count = 0
        self.ticks_recorded = 0
        self._slow_log: List[Dict[str, Any]] = []
        self.slow_ticks_total = 0
        self._median = 0.0
        self._phase_hist: Histogram = registry.histogram(
            "tick_phase_seconds",
            "Wall-clock time spent in each tick phase.",
            labelnames=("phase",),
            buckets=TICK_PHASE_BUCKETS,
        )
        self._phase_series = tuple(
            self._phase_hist.labels(phase=name) for name in PHASES
        )
        self._total_hist: Histogram = registry.histogram(
            "tick_total_seconds",
            "Wall-clock time of a whole engine tick.",
            buckets=TICK_PHASE_BUCKETS,
        )
        registry.counter_fn(
            "slow_ticks_total",
            "Ticks exceeding slow_factor x the rolling median tick time.",
            lambda: self.slow_ticks_total,
        )

    # -- recording ------------------------------------------------------
    def record(
        self,
        tick_index: int,
        begin_s: float,
        batch_s: float,
        fallback_s: float,
        step_s: float,
        settle_s: float,
        flush_s: float,
    ) -> None:
        """Record one tick's phase breakdown (durations in seconds).

        ``batch_s``/``fallback_s`` split the policy-upcall window: the
        engine measures the window with one perf_counter pair and
        subtracts the plane's inline fallback timings, so the two
        always sum to the window (no double counting on mixed fleets).
        """
        total_s = begin_s + batch_s + fallback_s + step_s + settle_s + flush_s
        row = self._ring[self._ring_next]
        row[0] = tick_index
        row[1] = begin_s
        row[2] = batch_s
        row[3] = fallback_s
        row[4] = step_s
        row[5] = settle_s
        row[6] = flush_s
        row[7] = total_s
        self._ring_next = (self._ring_next + 1) % self.ring_size
        if self._ring_count < self.ring_size:
            self._ring_count += 1
        self.ticks_recorded += 1

        durations = (begin_s, batch_s, fallback_s, step_s, settle_s, flush_s)
        for series, duration in zip(self._phase_series, durations):
            series.observe(duration)
        self._total_hist.observe(total_s)

        # Amortized median: a per-tick np.median over the ring would
        # dominate small ticks, so refresh it every 32 ticks and compare
        # against the cached value in between.
        if self.ticks_recorded % _MEDIAN_REFRESH_INTERVAL == 1:
            self._median = float(
                np.median(self._ring[: self._ring_count, len(PHASES) + 1])
            )
        if self._median > 0.0 and total_s > self.slow_factor * self._median:
            self.slow_ticks_total += 1
            self._slow_log.append(
                {
                    "tick_index": tick_index,
                    "total_s": total_s,
                    "median_s": self._median,
                    "phases": dict(zip(PHASES, durations)),
                }
            )
            if len(self._slow_log) > self.slow_log_size:
                del self._slow_log[0]

    def reset(self) -> None:
        """Clear the ring, slow-tick log, and rolling median.

        Histogram rollups live in the registry and are cumulative; they
        are intentionally left alone.
        """
        self._ring_next = 0
        self._ring_count = 0
        self.ticks_recorded = 0
        self._slow_log.clear()
        self.slow_ticks_total = 0
        self._median = 0.0

    # -- reading --------------------------------------------------------
    def __len__(self) -> int:
        return self._ring_count

    def _ordered_rows(self) -> np.ndarray:
        """Ring rows oldest-first."""
        if self._ring_count < self.ring_size:
            return self._ring[: self._ring_count]
        return np.roll(self._ring, -self._ring_next, axis=0)

    def last(self, n: Optional[int] = None) -> List[Dict[str, Any]]:
        """The most recent ``n`` ticks (all retained ticks if None)."""
        rows = self._ordered_rows()
        if n is not None:
            if n < 0:
                raise ValueError(f"last must be non-negative, got {n}")
            rows = rows[len(rows) - min(n, len(rows)) :]
        out = []
        for row in rows:
            out.append(
                {
                    "tick_index": int(row[0]),
                    "phases": {
                        name: float(row[i + 1]) for i, name in enumerate(PHASES)
                    },
                    "total_s": float(row[len(PHASES) + 1]),
                }
            )
        return out

    def slow_ticks(self) -> List[Dict[str, Any]]:
        """The retained slow-tick breakdowns, oldest first."""
        return [dict(entry, phases=dict(entry["phases"])) for entry in self._slow_log]

    def phase_totals(self) -> Dict[str, float]:
        """Cumulative seconds per phase since construction (histogram sums)."""
        totals: Dict[str, float] = {}
        for name in PHASES:
            totals[name] = self._phase_hist.labels(phase=name).sum
        return totals

    def total_seconds(self) -> float:
        """Cumulative wall-clock seconds across all recorded ticks."""
        return self._total_hist.sum

    def _ring_percentiles(self) -> np.ndarray:
        """Exact p50 (row 0) and p99 (row 1) of every ring column.

        Computed over the retained ticks only; zeros while the ring is
        empty.  Column order matches the ring: tick index, the six
        phases, total.
        """
        rows = self._ring[: self._ring_count]
        if not len(rows):
            return np.zeros((2, self._ring.shape[1]))
        return np.percentile(rows, (50.0, 99.0), axis=0)

    def phase_table(self) -> List[Dict[str, Any]]:
        """Per-phase rollup rows: total/mean seconds and share of tick
        time since construction, plus p50/p99 over the retained ring."""
        grand_total = self.total_seconds()
        pct = self._ring_percentiles()
        rows = []
        for i, name in enumerate(PHASES, start=1):
            series = self._phase_hist.labels(phase=name)
            count = series.count
            rows.append(
                {
                    "phase": name,
                    "total_s": series.sum,
                    "mean_s": series.sum / count if count else 0.0,
                    "share": series.sum / grand_total if grand_total else 0.0,
                    "p50_s": float(pct[0, i]),
                    "p99_s": float(pct[1, i]),
                }
            )
        return rows

    def summary(self) -> Dict[str, Any]:
        """Everything a report needs: totals, table, slow ticks."""
        count = self._total_hist.count
        total = self.total_seconds()
        pct = self._ring_percentiles()
        return {
            "phases": PHASES,
            "ticks_recorded": self.ticks_recorded,
            "ring_retained": self._ring_count,
            "total_s": total,
            "mean_tick_s": total / count if count else 0.0,
            "p50_tick_s": float(pct[0, -1]),
            "p99_tick_s": float(pct[1, -1]),
            "phase_table": self.phase_table(),
            "slow_ticks_total": self.slow_ticks_total,
            "slow_ticks": self.slow_ticks(),
        }

    def ticks_payload(self, last: Optional[int] = None) -> Dict[str, Any]:
        """The ``GET /v1/metrics/ticks`` response body."""
        ticks = self.last(last)
        return {
            "enabled": True,
            "phases": list(PHASES),
            "ring_size": self.ring_size,
            "ticks_recorded": self.ticks_recorded,
            "returned": len(ticks),
            "ticks": ticks,
            "slow_ticks_total": self.slow_ticks_total,
        }
