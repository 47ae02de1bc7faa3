"""Distributed ML training workload.

Models the paper's PyTorch job training ResNet-34 on CIFAR-100 for five
epochs (Section 5.1.1) as an iterative synchronous-SGD computation:
workers process batches in parallel, then synchronize gradients.  The
synchronization step is what limits scaling — "scaling up requires more
coordination among nodes, which causes synchronization delays that limit
speed-up and decrease energy-efficiency" (Section 5.1.2).

Scaling model: an *effective parallelism* curve, interpolated through
calibration anchors.  The default anchors encode the scaling behaviour
the paper's Figure 4a results imply: near-linear speedup from 4 to 8
workers (Wait&Scale(2x) achieves a carbon cut comparable to
suspend/resume, so energy per unit work barely grows), then a hard knee —
12 workers are only ~13% faster than 8 while drawing 50% more power,
which is why Wait&Scale(3x) *increases* carbon for a marginal runtime
gain.

Resume warmup models checkpoint reload and data-pipeline refill after a
suspension; frequent suspensions are why suspend/resume inflates runtime
beyond the pure duty-cycle factor (Figure 4a's 7.4x).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.units import sequential_sum
from repro.workloads.base import BatchJob

DEFAULT_WORKER_RATE_UNITS_PER_S = 1.0
DEFAULT_WARMUP_TICKS = 1

# (workers, effective parallel workers) calibration anchors; linear
# interpolation between anchors, flat extrapolation beyond the last.
DEFAULT_SCALING_ANCHORS: Tuple[Tuple[float, float], ...] = (
    (0.0, 0.0),
    (1.0, 1.0),
    (2.0, 2.0),
    (4.0, 4.0),
    (8.0, 7.8),
    (12.0, 8.8),
    (16.0, 9.2),
)

# Anchor tuples are immutable per job, so the interpolation grids — and
# the interpolated values themselves, which fleet runs request for the
# same handful of worker counts every tick — memoize cleanly.
_ANCHOR_GRIDS: Dict[
    Tuple[Tuple[float, float], ...], Tuple[np.ndarray, np.ndarray]
] = {}
_INTERP_CACHE: Dict[Tuple[float, Tuple[Tuple[float, float], ...]], float] = {}


def effective_parallelism(
    num_workers: float,
    anchors: Sequence[Tuple[float, float]] = DEFAULT_SCALING_ANCHORS,
) -> float:
    """Effective parallel worker count after synchronization losses."""
    if num_workers <= 0:
        return 0.0
    try:
        key = (num_workers, tuple(anchors))
        cached = _INTERP_CACHE.get(key)
    except TypeError:  # unhashable anchor points (e.g. lists)
        xs = np.asarray([a[0] for a in anchors])
        ys = np.asarray([a[1] for a in anchors])
        return float(np.interp(num_workers, xs, ys))
    if cached is None:
        grids = _ANCHOR_GRIDS.get(key[1])
        if grids is None:
            xs = np.asarray([a[0] for a in key[1]])
            ys = np.asarray([a[1] for a in key[1]])
            grids = _ANCHOR_GRIDS[key[1]] = (xs, ys)
        cached = _INTERP_CACHE[key] = float(
            np.interp(num_workers, grids[0], grids[1])
        )
    return cached


def sync_efficiency(
    num_workers: int,
    anchors: Sequence[Tuple[float, float]] = DEFAULT_SCALING_ANCHORS,
) -> float:
    """Parallel efficiency (effective / nominal workers)."""
    if num_workers <= 0:
        return 0.0
    return effective_parallelism(num_workers, anchors) / num_workers


class MLTrainingJob(BatchJob):
    """Synchronous data-parallel training job."""

    batch_compatible = True

    def __init__(
        self,
        name: str = "ml-training",
        total_work_units: float = 29000.0,
        worker_rate_units_per_s: float = DEFAULT_WORKER_RATE_UNITS_PER_S,
        scaling_anchors: Sequence[Tuple[float, float]] = DEFAULT_SCALING_ANCHORS,
        warmup_ticks_on_resume: int = DEFAULT_WARMUP_TICKS,
        stall_power_fraction: float = 0.5,
    ):
        super().__init__(name, total_work_units, warmup_ticks_on_resume)
        if worker_rate_units_per_s <= 0:
            raise ValueError("worker rate must be positive")
        anchors = tuple(scaling_anchors)
        if len(anchors) < 2:
            raise ValueError("scaling curve needs at least two anchors")
        if any(a[0] > b[0] for a, b in zip(anchors, anchors[1:])):
            raise ValueError("scaling anchors must be sorted by worker count")
        if not 0.0 <= stall_power_fraction <= 1.0:
            raise ValueError("stall power fraction must be in [0, 1]")
        self._worker_rate = worker_rate_units_per_s
        self._anchors = anchors
        self._stall_power_fraction = stall_power_fraction
        # Per-worker-count memos: anchors and stall fraction are fixed
        # for the job's lifetime, so these pure derivations are too.
        self._demand_by_n: Dict[int, float] = {}
        self._share_by_n: Dict[int, float] = {}

    @property
    def scaling_anchors(self) -> Tuple[Tuple[float, float], ...]:
        return self._anchors

    @property
    def worker_rate_units_per_s(self) -> float:
        return self._worker_rate

    @property
    def stall_power_fraction(self) -> float:
        return self._stall_power_fraction

    def busy_fraction(self, num_workers: int) -> float:
        """Fraction of time a worker computes (rest is barrier stall)."""
        if num_workers <= 0:
            return 0.0
        return effective_parallelism(num_workers, self._anchors) / num_workers

    def demand_utilization(self, num_workers: int) -> float:
        """CPU utilization a worker exhibits, including stall spin.

        Barrier stalls are not free: gradient all-reduce and busy-polling
        keep the CPU partially active, so a stalled worker draws
        ``stall_power_fraction`` of its dynamic power.  This is why
        over-scaling costs energy (and carbon) even though it adds little
        throughput.
        """
        busy = self.busy_fraction(num_workers)
        return busy + self._stall_power_fraction * (1.0 - busy)

    def step_demand_utilization(self, num_workers: int) -> float:
        cached = self._demand_by_n.get(num_workers)
        if cached is None:
            cached = self._demand_by_n[num_workers] = self.demand_utilization(
                num_workers
            )
        return cached

    def throughput_units_per_s(self, effective_utilizations: List[float]) -> float:
        """Aggregate training throughput under synchronous barriers.

        Only the *busy* share of utilization is productive: of a worker's
        demand utilization, ``busy/demand`` does training work and the
        rest is stall spin.  Power caps clamp total utilization, scaling
        productive work proportionally.
        """
        productive_share = self._productive_share(len(effective_utilizations))
        if productive_share == 0.0:
            return 0.0
        return (
            self._worker_rate
            * sequential_sum(effective_utilizations)
            * productive_share
        )

    def _productive_share(self, num_workers: int) -> float:
        """The ``busy/demand`` share of ``num_workers`` workers, memoized
        per count; 0.0 for no workers or no demand (not memoized)."""
        if num_workers == 0:
            return 0.0
        productive_share = self._share_by_n.get(num_workers)
        if productive_share is None:
            demand = self.demand_utilization(num_workers)
            if demand <= 0:
                return 0.0
            productive_share = self._share_by_n[num_workers] = (
                self.busy_fraction(num_workers) / demand
            )
        return productive_share

    @classmethod
    def _batch_rate(cls, rows, plan, utils, sums):
        """Vectorized sync-SGD throughput: ``(rate * sum) * share``.

        Operand order matches :meth:`throughput_units_per_s`; members
        with zero workers get share 0.0, reproducing its early return.
        The share column is pure in the per-plan worker counts, so it
        is a count column of the plan.
        """
        shares = plan.count_column("ml_share", rows.apps, cls._productive_share)
        return rows.col("_worker_rate") * sums * shares

    def _natural_throughput(self, num_workers: int) -> float:
        """Throughput at the workload's own demand utilization (no caps)."""
        demand = self.demand_utilization(num_workers)
        return self.throughput_units_per_s([demand] * num_workers)

    def ideal_runtime_s(self, num_workers: int) -> float:
        """Uncapped runtime with ``num_workers`` (for calibration)."""
        rate = self._natural_throughput(num_workers)
        if rate <= 0:
            return float("inf")
        return self.total_work_units / rate

    def speedup(self, num_workers: int, baseline_workers: int = 4) -> float:
        """Uncapped throughput ratio vs the baseline worker count."""
        base = self._natural_throughput(baseline_workers)
        scaled = self._natural_throughput(num_workers)
        return scaled / base if base > 0 else float("inf")
