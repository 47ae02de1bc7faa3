"""Spark-like delay-tolerant batch workload with checkpointing.

Models the paper's image preprocessing / feature extraction pyspark job
(Section 5.3.1): a delay-tolerant computation that runs on solar power
and a battery during the day, checkpoints completed operations to HDFS,
and suspends at night to preserve a zero carbon footprint.  "Incomplete
workers are terminated without checkpointing every evening and their
in-memory results are lost."

Progress therefore splits into:

- **checkpointed** progress, durably stored in (simulated) HDFS, and
- **volatile** progress held in worker memory since the last checkpoint.

Checkpoints commit automatically every ``checkpoint_interval_s`` while
running.  When workers are killed, the volatile progress of the killed
fraction is lost — the risk the dynamic battery policy of Figure 8(c)
deliberately takes when it opportunistically scales onto excess solar.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.clock import TickInfo
from repro.core.units import sequential_sum
from repro.workloads.base import BatchJob

DEFAULT_CHECKPOINT_INTERVAL_S = 1800.0


class SparkJob(BatchJob):
    """Checkpointing data-parallel job (near-linear scaling)."""

    batch_compatible = True

    def __init__(
        self,
        name: str = "spark",
        total_work_units: float = 200000.0,
        worker_rate_units_per_s: float = 1.0,
        sync_overhead: float = 0.02,
        checkpoint_interval_s: float = DEFAULT_CHECKPOINT_INTERVAL_S,
        warmup_ticks_on_resume: int = 2,
    ):
        super().__init__(name, total_work_units, warmup_ticks_on_resume)
        if worker_rate_units_per_s <= 0:
            raise ValueError("worker rate must be positive")
        if checkpoint_interval_s <= 0:
            raise ValueError("checkpoint interval must be positive")
        self._worker_rate = worker_rate_units_per_s
        self._sync_overhead = sync_overhead
        self._checkpoint_interval_s = checkpoint_interval_s
        self._checkpointed_units = 0.0
        self._last_checkpoint_s = 0.0
        self._lost_units_total = 0.0
        self._checkpoint_count = 0
        self._denom_by_n: dict = {}

    # ------------------------------------------------------------------
    # Checkpoint state
    # ------------------------------------------------------------------
    @property
    def checkpointed_units(self) -> float:
        """Progress durably committed to (simulated) HDFS."""
        return self._checkpointed_units

    @property
    def volatile_units(self) -> float:
        """Progress held only in worker memory since the last checkpoint."""
        return max(0.0, self.progress_units - self._checkpointed_units)

    @property
    def lost_units_total(self) -> float:
        """Work discarded across all unclean worker terminations."""
        return self._lost_units_total

    @property
    def checkpoint_count(self) -> int:
        return self._checkpoint_count

    @property
    def checkpoint_interval_s(self) -> float:
        return self._checkpoint_interval_s

    def checkpoint(self, time_s: float) -> float:
        """Commit all volatile progress; returns the amount committed."""
        committed = self.volatile_units
        self._checkpointed_units = self.progress_units
        self._last_checkpoint_s = time_s
        self._checkpoint_count += 1
        return committed

    def kill_workers(self, killed: int, total: int, time_s: float) -> float:
        """Terminate ``killed`` of ``total`` workers without checkpointing.

        The killed workers' share of volatile progress is lost (their
        in-memory results are gone).  Returns the lost work.  The caller
        (a policy) is responsible for actually scaling the containers.
        """
        if total <= 0 or killed <= 0:
            return 0.0
        fraction = min(1.0, killed / total)
        lost = self.volatile_units * fraction
        self._progress = max(self._checkpointed_units, self._progress - lost)
        self._lost_units_total += lost
        return lost

    def suspend_with_checkpoint(self, time_s: float) -> float:
        """Cleanly checkpoint before a planned suspension (dusk shutdown)."""
        return self.checkpoint(time_s)

    # ------------------------------------------------------------------
    # Throughput model: near-linear with a small coordination overhead
    # ------------------------------------------------------------------
    def throughput_units_per_s(self, effective_utilizations: List[float]) -> float:
        n = len(effective_utilizations)
        if n == 0:
            return 0.0
        raw = self._worker_rate * sequential_sum(effective_utilizations)
        return raw / self._sync_denom(n)

    def _sync_denom(self, num_workers: int) -> float:
        """The memoized coordination denominator; 1.0 for no workers
        (a member the batch kernel gives no progress anyway)."""
        if not num_workers:
            return 1.0
        denom = self._denom_by_n.get(num_workers)
        if denom is None:
            denom = self._denom_by_n[num_workers] = 1.0 + self._sync_overhead * (
                num_workers - 1
            )
        return denom

    # ------------------------------------------------------------------
    # Engine protocol: auto-checkpoint on the configured interval
    # ------------------------------------------------------------------
    def finish_tick(
        self, tick: TickInfo, duration_s: float, served_fraction: float
    ) -> None:
        super().finish_tick(tick, duration_s, served_fraction)
        # Spark pools are all workers; the memoized worker list avoids
        # re-walking the container table after the settle phase.
        running = len(self.worker_containers()) > 0
        if (
            running
            and not self.is_complete
            and tick.end_s - self._last_checkpoint_s >= self._checkpoint_interval_s
        ):
            self.checkpoint(tick.end_s)

    @classmethod
    def _batch_rate(cls, rows, plan, utils, sums):
        """Vectorized throughput: ``(rate * sum) / denom`` per member.

        The denominator column is pure in the per-plan worker counts,
        so it is a count column of the plan.
        """
        denoms = plan.count_column("spark_denom", rows.apps, cls._sync_denom)
        raw = rows.col("_worker_rate") * sums
        return raw / denoms

    @classmethod
    def finish_tick_batch(
        cls, tick: TickInfo, duration_s: float, fractions, rows
    ) -> None:
        """Progress update plus the interval auto-checkpoint sweep."""
        super().finish_tick_batch(tick, duration_s, fractions, rows)
        plan = rows.worker_plan()
        progress = rows.updated_progress
        total = rows.col("_total_work")
        complete = progress >= total - 1e-9
        last = rows.gather("_last_checkpoint_s")
        interval = rows.col("_checkpoint_interval_s")
        due = (
            (plan.counts > 0)
            & ~complete
            & (tick.end_s - last >= interval)
        )
        end_s = tick.end_s
        for k in np.flatnonzero(due).tolist():
            rows.apps[k].checkpoint(end_s)
