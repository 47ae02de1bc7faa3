"""Application base classes.

Applications in this reproduction mirror the paper's containerized
applications: they run in containers managed through the ecovisor API and
receive the ``tick()`` upcall (via their *policy*, which encapsulates the
carbon-management logic; see :mod:`repro.policies`).

The engine drives each application twice per tick:

1. :meth:`Application.step` — before settlement: the application sets
   each container's *demand utilization* (how busy it wants to be).
   Container power caps then clamp what actually runs.
2. :meth:`Application.finish_tick` — after settlement: the application
   commits progress and records metrics using the containers' *effective*
   utilization and the settlement's served-energy fraction (power
   shortages degrade capacity, as Section 3 describes for resource
   revocations).

:class:`BatchJob` adds completion semantics and the throughput hook that
the ML-training, BLAST, Spark, and synthetic-parallel models implement.
"""

from __future__ import annotations

import abc
from operator import attrgetter
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.container import Container
from repro.core.api import EcovisorAPI
from repro.core.clock import TickInfo


class Application(abc.ABC):
    """A containerized application managed through the ecovisor API."""

    #: Vectorized upcall plane opt-in (see ``core/upcalls.py`` and
    #: docs/performance.md).  A workload class that sets this to True
    #: **in its own body** and provides classmethods
    #: ``step_batch(cls, tick, duration_s, rows)`` and
    #: ``finish_tick_batch(cls, tick, duration_s, fractions, rows)``
    #: (``fractions`` is settle's
    #: :class:`~repro.core.fleetarrays.ServedFractions`; ``rows.served``
    #: takes the members' column from it)
    #: lets the batched engine drive all its instances with one grouped
    #: call per class.  The contract: effects must stay app-local (own
    #: containers' demand, own attributes, app-unique telemetry keys),
    #: so delivering a class group together instead of interleaved with
    #: other apps is unobservable.  Checked on the class's ``__dict__``
    #: on purpose: subclasses fall back to the per-app path unless they
    #: re-opt-in.
    batch_compatible = False

    def __init__(self, name: str):
        self._name = name
        self._api: Optional[EcovisorAPI] = None

    @property
    def name(self) -> str:
        return self._name

    @property
    def api(self) -> EcovisorAPI:
        if self._api is None:
            raise RuntimeError(f"application {self._name!r} is not bound to an API")
        return self._api

    @property
    def is_bound(self) -> bool:
        return self._api is not None

    def bind(self, api: EcovisorAPI) -> None:
        """Attach the application to its ecovisor API handle."""
        self._api = api
        self.on_bind()

    def on_bind(self) -> None:
        """Hook for subclasses; runs once after :meth:`bind`."""

    @abc.abstractmethod
    def step(self, tick: TickInfo, duration_s: float) -> None:
        """Set per-container demand utilizations for the coming interval."""

    @abc.abstractmethod
    def finish_tick(
        self, tick: TickInfo, duration_s: float, served_fraction: float
    ) -> None:
        """Commit progress/metrics after the interval's energy settlement."""

    @property
    def is_complete(self) -> bool:
        """Batch jobs override; services never complete."""
        return False

    def running_containers(self):
        return self.api.list_containers()

    def worker_containers(self):
        """Running containers with the default ``worker`` role.

        Reads the bound handle directly: this runs twice per app per
        tick (step and finish), where the guard property's extra frame
        is measurable at fleet scale.
        """
        api = self._api
        if api is None:
            raise RuntimeError(f"application {self._name!r} is not bound to an API")
        return api.list_containers(role="worker")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._name!r})"


class BatchJob(Application):
    """A job with a fixed amount of work and a completion time.

    Subclasses define :meth:`throughput_units_per_s`, mapping the current
    containers' effective utilizations to aggregate work throughput.  The
    base class tracks committed progress, suspend/resume transitions
    (with a configurable warmup penalty on resume, modelling checkpoint
    reload and pipeline refill), and the completion timestamp.
    """

    def __init__(
        self,
        name: str,
        total_work_units: float,
        warmup_ticks_on_resume: int = 0,
    ):
        super().__init__(name)
        if total_work_units <= 0:
            raise ValueError(f"total work must be positive, got {total_work_units}")
        if warmup_ticks_on_resume < 0:
            raise ValueError("warmup ticks must be >= 0")
        self._total_work = float(total_work_units)
        self._progress = 0.0
        self._warmup_ticks_on_resume = warmup_ticks_on_resume
        self._warmup_remaining = 0
        self._was_running = False
        self._completion_time_s: Optional[float] = None
        self._pending_units = 0.0
        self._suspended_ticks = 0
        self._running_ticks = 0

    # ------------------------------------------------------------------
    # Progress accounting
    # ------------------------------------------------------------------
    @property
    def total_work_units(self) -> float:
        return self._total_work

    @property
    def progress_units(self) -> float:
        return self._progress

    @property
    def progress_fraction(self) -> float:
        return min(1.0, self._progress / self._total_work)

    @property
    def is_complete(self) -> bool:
        return self._progress >= self._total_work - 1e-9

    @property
    def completion_time_s(self) -> Optional[float]:
        """Simulation time at which the job finished (None if unfinished)."""
        return self._completion_time_s

    @property
    def suspended_ticks(self) -> int:
        return self._suspended_ticks

    @property
    def running_ticks(self) -> int:
        return self._running_ticks

    # ------------------------------------------------------------------
    # Throughput model hook
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def throughput_units_per_s(self, effective_utilizations: List[float]) -> float:
        """Aggregate work rate given each running container's utilization."""

    # ------------------------------------------------------------------
    # Engine protocol
    # ------------------------------------------------------------------
    def step_demand_utilization(self, num_workers: int) -> float:
        """Demand utilization :meth:`step` assigns each worker.

        Subclasses with a utilization model (e.g. barrier-stall spin)
        override this instead of re-fetching the worker list in their
        own ``step``.
        """
        return 1.0

    def step(self, tick: TickInfo, duration_s: float) -> None:
        if self.is_complete:
            for container in self.running_containers():
                container.set_demand_utilization(0.0)
            self._pending_units = 0.0
            return
        containers = self.worker_containers()
        running_now = len(containers) > 0
        if running_now and not self._was_running:
            self._warmup_remaining = self._warmup_ticks_on_resume
        self._was_running = running_now
        if containers:
            demand = self.step_demand_utilization(len(containers))
            for container in containers:
                container.set_demand_utilization(demand)
        self._pending_units = 0.0  # computed in finish_tick from effective utils

    def finish_tick(
        self, tick: TickInfo, duration_s: float, served_fraction: float
    ) -> None:
        if self.is_complete:
            return
        containers = self.worker_containers()
        if not containers:
            self._suspended_ticks += 1
            return
        self._running_ticks += 1
        if self._warmup_remaining > 0:
            # Resume warmup: containers draw power but make no progress
            # (checkpoint reload, data pipeline refill, re-sync).
            self._warmup_remaining -= 1
            return
        utils = [c.effective_utilization for c in containers]
        rate = self.throughput_units_per_s(utils)
        done = rate * duration_s * max(0.0, min(1.0, served_fraction))
        self._progress = min(self._total_work, self._progress + done)
        if self.is_complete and self._completion_time_s is None:
            self._completion_time_s = tick.end_s

    # ------------------------------------------------------------------
    # Vectorized engine protocol (core/upcalls.py)
    # ------------------------------------------------------------------
    # BatchJob itself does NOT set batch_compatible: concrete subclasses
    # opt in per class (the plane checks the class's own __dict__), and
    # inherit these kernels.  Each kernel is the masked, array-level
    # transcription of the scalar body above — branch for branch — so
    # N members produce byte-identical state to N sequential calls.

    @classmethod
    def step_batch(cls, tick: TickInfo, duration_s: float, rows) -> None:
        """Vectorized :meth:`step` over one class group."""
        apps = rows.apps
        # Last tick's finish left every member's post-update progress in
        # ``updated_progress``; nothing between ticks writes
        # ``_progress`` for a batched member, so it is still current.
        progress = rows.updated_progress
        if progress is None:
            progress = rows.gather("_progress")
        rows.step_progress = progress
        total = rows.col("_total_work")
        complete = progress >= total - 1e-9
        plan = rows.worker_plan()
        counts = plan.counts
        if complete.any():
            # Scalar complete branch: zero demand on *all* running
            # containers (any role), every tick until they are stopped.
            platform = rows.platform
            for k in np.flatnonzero(complete).tolist():
                for container in platform.running_containers_for(rows.names[k]):
                    container.set_demand_utilization(0.0)
                plan.written[k] = False
        active = ~complete
        running_now = counts > 0
        was = rows.was_running
        if was is None:
            was = rows.was_running = rows.gather("_was_running", dtype=bool)
        warmup = rows.warmup
        for k in np.flatnonzero(active & running_now & ~was).tolist():
            app = apps[k]
            value = app._warmup_ticks_on_resume
            app._warmup_remaining = value
            if warmup is not None:
                warmup[k] = value
        changed = active & (was != running_now)
        if changed.any():
            for k in np.flatnonzero(changed).tolist():
                apps[k]._was_running = bool(running_now[k])
            was[changed] = running_now[changed]
        # Demand only needs (re)writing when the worker plan changed:
        # within a plan the count — hence step_demand_utilization's
        # value — is fixed, and the scalar rewrite of an equal value is
        # a container-setter no-op.
        need = active & running_now & ~plan.written
        for k in np.flatnonzero(need).tolist():
            app = apps[k]
            demand = app.step_demand_utilization(int(counts[k]))
            for container in plan.lists[k]:
                container.set_demand_utilization(demand)
            plan.written[k] = True

    @classmethod
    def finish_tick_batch(
        cls, tick: TickInfo, duration_s: float, fractions, rows
    ) -> None:
        """Vectorized :meth:`finish_tick` over one class group.

        Leaves every member's post-update progress in
        ``rows.updated_progress`` for subclass sweeps (e.g. Spark's
        auto-checkpoint).
        """
        apps = rows.apps
        n = rows.n
        # step_batch's gather is still current: nothing between the two
        # phases writes ``_progress``.
        progress = rows.step_progress
        rows.step_progress = None
        if progress is None:
            progress = rows.gather("_progress")
        total = rows.col("_total_work")
        complete = progress >= total - 1e-9
        rows.updated_progress = progress
        active = ~complete
        if not active.any():
            return
        plan = rows.worker_plan()
        counts = plan.counts
        for k in np.flatnonzero(active & (counts == 0)).tolist():
            apps[k]._suspended_ticks += 1
        runners = active & (counts > 0)
        if not runners.any():
            return
        for k in np.flatnonzero(runners).tolist():
            apps[k]._running_ticks += 1
        warmup = rows.warmup
        if warmup is None:
            warmup = rows.warmup = rows.gather(
                "_warmup_remaining", dtype=np.int64
            )
        warm = runners & (warmup > 0)
        if warm.any():
            for k in np.flatnonzero(warm).tolist():
                apps[k]._warmup_remaining = int(warmup[k]) - 1
            warmup[warm] -= 1
        prog = runners & ~warm
        if not prog.any():
            return
        epoch = Container._utilization_epoch
        if plan.util_epoch != epoch:
            # Re-gathered only after a demand or cap write: the plan's
            # containers are fixed, so nothing else moves their utils.
            flat = plan.flat
            m = len(flat)
            # effective_utilization inlined: plan members are running, so
            # it is min(demand, cap) — np.minimum matches the scalar min()
            # bit for bit, and bincount accumulates each member's utils
            # from 0.0 in launch order, as the scalar models'
            # sequential_sum does.
            demand = np.fromiter(
                map(attrgetter("_demand_utilization"), flat), dtype=float, count=m
            )
            cap = np.fromiter(
                map(attrgetter("_cap_utilization"), flat), dtype=float, count=m
            )
            utils = np.minimum(demand, cap)
            sums = np.bincount(plan.flat_member, weights=utils, minlength=n)
            utils.flags.writeable = False
            sums.flags.writeable = False
            plan.utils = utils
            plan.sums = sums
            plan.util_epoch = epoch
        rate = cls._batch_rate(rows, plan, plan.utils, plan.sums)
        frac = rows.served(fractions)
        done = rate * duration_s * np.maximum(0.0, np.minimum(1.0, frac))
        new_progress = np.minimum(total, progress + done)
        end_s = tick.end_s
        for k in np.flatnonzero(prog).tolist():
            app = apps[k]
            value = float(new_progress[k])
            app._progress = value
            progress[k] = value
            if value >= total[k] - 1e-9 and app._completion_time_s is None:
                app._completion_time_s = end_s
        rows.updated_progress = progress

    @classmethod
    def _batch_rate(cls, rows, plan, utils: np.ndarray, sums: np.ndarray):
        """Per-member throughput for :meth:`finish_tick_batch`.

        Generic fallback: slice each member's utilization list out of
        the flat gather and call the scalar model.  Subclasses whose
        model reduces to the utilization *sum* override this with a
        closed-form array expression (``sums`` is the per-member
        launch-order sum).
        """
        offsets = plan.offsets
        rates = np.zeros(rows.n)
        counts = plan.counts
        apps = rows.apps
        for k in range(rows.n):
            if counts[k]:
                rates[k] = apps[k].throughput_units_per_s(
                    utils[offsets[k] : offsets[k + 1]].tolist()
                )
        return rates

    # ------------------------------------------------------------------
    # Result summary
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        return {
            "progress_fraction": self.progress_fraction,
            "completion_time_s": self._completion_time_s or float("nan"),
            "suspended_ticks": float(self._suspended_ticks),
            "running_ticks": float(self._running_ticks),
        }
