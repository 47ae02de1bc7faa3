"""The tick-driven simulation engine.

Drives the ecovisor, applications, and policies through the paper's tick
protocol (Section 3.1).  One engine tick performs, in order:

1. ``ecovisor.begin_tick``   — sample solar/carbon, refresh virtual
   views, publish asynchronous events.
2. ``ecovisor.invoke_app_ticks`` — deliver ``tick()`` upcalls (policies
   scale containers, set power caps, steer batteries).
3. ``app.step``              — workloads set container demand
   utilizations for the interval.
4. ``ecovisor.settle``       — measure power, settle each virtual energy
   system, attribute energy and carbon.
5. ``app.finish_tick``       — workloads commit progress and metrics
   using the settled served-energy fraction.
6. ``clock.advance``.

The engine stops at ``max_ticks`` or, optionally, as soon as every
tracked batch job has completed.

There is one loop and two paths through it.  ``batched=True`` (the
default) is the production path: columnar settlement
(:mod:`repro.core.fleetarrays`) and grouped upcalls
(:mod:`repro.core.upcalls`).  ``batched=False`` is the per-app
object reference path the parity suites compare it against.  Either
way the loop stamps each phase boundary with ``perf_counter`` and
records the six durations in ``engine.profiler``
(:class:`~repro.obs.profiler.TickProfiler`), so every tick is profiled.

Control plane v1.1 makes the tenant population dynamic: applications can
be admitted, rebalanced, and evicted **mid-run** — immediately (through
``add_application`` / ``remove_application``, or externally through the
REST admin namespace) or on a schedule (``schedule_admission`` /
``schedule_share_change`` / ``schedule_eviction``), with scheduled
operations applied at the top of their tick, before ``begin_tick``, so
an admitted application participates in that tick's full protocol.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.accounting import AppAccount
from repro.core.api import EcovisorAPI, connect
from repro.core.clock import SimulationClock, TickInfo
from repro.core.config import ShareConfig
from repro.core.ecovisor import Ecovisor
from repro.core.errors import SimulationError
from repro.core.events import AppEvictedEvent
from repro.core.upcalls import UpcallPlane
from repro.obs.profiler import TickProfiler
from repro.policies.base import Policy
from repro.workloads.base import Application

TickObserver = Callable[[TickInfo], None]


class SimulationEngine:
    """Couples an ecovisor, a clock, and a set of (app, policy) pairs."""

    def __init__(
        self,
        ecovisor: Ecovisor,
        clock: Optional[SimulationClock] = None,
        batched: bool = True,
        profiler: Optional[TickProfiler] = None,
    ):
        self._ecovisor = ecovisor
        self._clock = clock or SimulationClock(
            tick_interval_s=ecovisor.config.tick_interval_s
        )
        # Every tick is profiled; rollups land in the ecovisor's metrics
        # registry, so ``/v1/metrics`` and ``/v1/metrics/ticks`` are
        # populated on every engine.
        self.profiler = profiler or TickProfiler(registry=ecovisor.metrics)
        ecovisor.profiler = self.profiler
        self._apps: List[Application] = []
        self._observers: List[TickObserver] = []
        self._batched = batched
        # Vectorized upcall plane (core/upcalls.py): grouped policy and
        # workload upcalls on the batched path; the unbatched loop keeps
        # the per-app reference calls the parity harness compares
        # against.
        self._plane = UpcallPlane(ecovisor)
        # Scheduled lifecycle operations, keyed by tick index.  Each
        # tick processes evictions, then share changes, then admissions
        # (frees capacity before granting it), in scheduling order.
        self._scheduled_evictions: Dict[int, List[str]] = {}
        self._scheduled_share_changes: Dict[int, List[Tuple[str, ShareConfig]]] = {}
        self._scheduled_admissions: Dict[
            int, List[Tuple[Application, ShareConfig, Optional[Policy]]]
        ] = {}
        self._evicted_accounts: Dict[str, AppAccount] = {}
        # Track evictions at the source: whichever path evicts (this
        # engine, the REST admin namespace, or direct Ecovisor calls),
        # the Application must stop being stepped and counted.
        ecovisor.events.subscribe(AppEvictedEvent, self._on_app_evicted)

    @property
    def ecovisor(self) -> Ecovisor:
        return self._ecovisor

    @property
    def clock(self) -> SimulationClock:
        return self._clock

    @property
    def batched(self) -> bool:
        """Whether :meth:`run` takes the production or the reference path.

        True (the default) settles through the columnar kernel and
        delivers upcalls through the vectorized plane.  False runs the
        per-app object path: the reference the production path is
        parity-tested against.  Both sample the tick's signals live.
        The reference path is chosen before the first batched run: once
        the ecovisor is columnar, a ``run`` with False raises
        :class:`~repro.core.errors.ConfigurationError` before any tick.
        """
        return self._batched

    @batched.setter
    def batched(self, value: bool) -> None:
        self._batched = bool(value)

    @property
    def applications(self) -> List[Application]:
        return list(self._apps)

    def add_application(
        self,
        app: Application,
        share: ShareConfig,
        policy: Optional[Policy] = None,
    ) -> EcovisorAPI:
        """Admit an application (and optionally its policy).

        Works both before the run and mid-run: admission goes through
        ``Ecovisor.admit_app``, so an ``AppAdmittedEvent`` is published
        and a mid-run admission joins the in-flight tick's settlement.
        """
        self._ecovisor.admit_app(app.name, share)
        api = connect(self._ecovisor, app.name)
        app.bind(api)
        if policy is not None:
            policy.attach(app, api)
        self._apps.append(app)
        return api

    def _on_app_evicted(self, event: AppEvictedEvent) -> None:
        """Unregister an evicted Application, whoever triggered it.

        Runs synchronously inside ``Ecovisor.evict_app`` (before any
        re-admission can reopen the account), so the finalized account
        stored here is the evicted tenant's.  When a name is re-admitted
        and evicted again, the latest life wins in this name-keyed dict;
        displaced lives remain in ``ledger.archived_accounts``.
        """
        self._apps = [app for app in self._apps if app.name != event.app_name]
        self._evicted_accounts[event.app_name] = self._ecovisor.ledger.account(
            event.app_name
        )

    def remove_application(self, name: str) -> AppAccount:
        """Evict an application mid-run; returns its finalized account.

        The application stops receiving ``step``/``finish_tick`` calls,
        its containers are stopped, and its solar/battery share returns
        to the admission pool (``Ecovisor.evict_app``; the same cleanup
        runs for evictions issued outside this engine, e.g. through the
        REST admin namespace).
        """
        return self._ecovisor.evict_app(name)

    # ------------------------------------------------------------------
    # Scheduled lifecycle (applied at the top of the target tick)
    # ------------------------------------------------------------------
    def schedule_admission(
        self,
        tick_index: int,
        app: Application,
        share: ShareConfig,
        policy: Optional[Policy] = None,
    ) -> None:
        """Admit ``app`` at the start of tick ``tick_index``."""
        self._scheduled_admissions.setdefault(tick_index, []).append(
            (app, share, policy)
        )

    def schedule_eviction(self, tick_index: int, app_name: str) -> None:
        """Evict ``app_name`` at the start of tick ``tick_index``."""
        self._scheduled_evictions.setdefault(tick_index, []).append(app_name)

    def schedule_share_change(
        self, tick_index: int, app_name: str, share: ShareConfig
    ) -> None:
        """Rebalance ``app_name`` to ``share`` at tick ``tick_index``.

        The change is staged via ``Ecovisor.set_share`` at the top of
        the tick, so it is effective for that same tick's ``begin_tick``.
        """
        self._scheduled_share_changes.setdefault(tick_index, []).append(
            (app_name, share)
        )

    @property
    def evicted_accounts(self) -> Dict[str, AppAccount]:
        """Finalized accounts of applications evicted through this engine."""
        return dict(self._evicted_accounts)

    def _process_scheduled(self, tick_index: int) -> None:
        """Apply lifecycle operations scheduled at or before this tick.

        Evictions and share changes targeting an application that is no
        longer registered (evicted earlier — by another schedule entry
        or an external controller) are silently skipped: one stale
        entry must not abort the run for every other tenant.
        Admissions stay strict (a duplicate name is a real error).
        """
        ecovisor = self._ecovisor
        for due in sorted(k for k in self._scheduled_evictions if k <= tick_index):
            for name in self._scheduled_evictions.pop(due):
                if ecovisor.has_app(name):
                    self.remove_application(name)
        for due in sorted(
            k for k in self._scheduled_share_changes if k <= tick_index
        ):
            for name, share in self._scheduled_share_changes.pop(due):
                if ecovisor.has_app(name):
                    ecovisor.set_share(name, share)
        for due in sorted(k for k in self._scheduled_admissions if k <= tick_index):
            for app, share, policy in self._scheduled_admissions.pop(due):
                self.add_application(app, share, policy)

    def add_observer(self, observer: TickObserver) -> None:
        """Call ``observer`` at the end of every tick (for custom probes)."""
        self._observers.append(observer)

    def run(
        self,
        max_ticks: int,
        stop_when_batch_complete: bool = False,
    ) -> int:
        """Run up to ``max_ticks`` ticks; returns the number executed.

        With ``stop_when_batch_complete``, the run ends one settled tick
        after every application reporting completion semantics finishes
        (service applications never complete and are ignored for the
        stopping rule unless they are the only applications).
        """
        if max_ticks <= 0:
            raise SimulationError(f"max_ticks must be positive, got {max_ticks}")
        ecovisor = self._ecovisor
        # The columnar struct-of-arrays kernel rides the batched toggle;
        # batched=False remains the per-app reference object path the
        # parity harness compares against.  The switch only turns on, so
        # an engine set back to batched=False after a batched run raises
        # here, before any tick.
        ecovisor.columnar = self._batched
        observers = self._observers
        profiler = self.profiler
        plane = self._plane if self._batched else None
        executed = 0
        # Phase boundaries are consecutive ``perf_counter`` reads, so the
        # six durations partition the tick exactly: their sum *is* the
        # wall-clock tick time.  The policy window (t1..t2) splits into
        # ``policy_batch``/``policy_fallback`` by subtracting the plane's
        # inline fallback timings; on the unbatched path the whole
        # window is fallback time.
        for _ in range(max_ticks):
            t0 = perf_counter()
            tick = self._clock.current_tick()
            if (
                self._scheduled_evictions
                or self._scheduled_share_changes
                or self._scheduled_admissions
            ):
                self._process_scheduled(tick.index)
            ecovisor.begin_tick(tick)
            t1 = perf_counter()
            if plane is not None:
                fallback_s = plane.invoke_policies(tick)
            else:
                ecovisor.invoke_app_ticks(tick)
            t2 = perf_counter()
            # Snapshot after the upcalls: applications admitted during
            # them are stepped and settled this very tick; evictions
            # later in the tick leave a harmless no-op finish_tick.
            apps = list(self._apps)
            if plane is not None:
                plane.step_workloads(tick, tick.duration_s, apps)
                t3 = perf_counter()
                fractions = ecovisor.settle(tick)
                t4 = perf_counter()
                plane.finish_workloads(tick, tick.duration_s, fractions, apps)
            else:
                for app in apps:
                    app.step(tick, tick.duration_s)
                t3 = perf_counter()
                fractions = ecovisor.settle(tick)
                t4 = perf_counter()
                for app in apps:
                    app.finish_tick(
                        tick, tick.duration_s, fractions.get(app.name, 1.0)
                    )
            for observer in observers:
                observer(tick)
            self._clock.advance()
            t5 = perf_counter()
            upcalls_s = t2 - t1
            if plane is not None:
                fallback_s = min(fallback_s, upcalls_s)
                batch_s = upcalls_s - fallback_s
            else:
                batch_s = 0.0
                fallback_s = upcalls_s
            profiler.record(
                tick.index,
                t1 - t0,
                batch_s,
                fallback_s,
                t3 - t2,
                t4 - t3,
                t5 - t4,
            )
            executed += 1
            if stop_when_batch_complete and self._all_batch_complete():
                break
        return executed

    def _all_batch_complete(self) -> bool:
        batch_like = [app for app in self._apps if _has_completion(app)]
        if not batch_like:
            return False
        return all(app.is_complete for app in batch_like)


def _has_completion(app: Application) -> bool:
    """True for applications whose ``is_complete`` can become True."""
    # Services inherit the always-False default; batch jobs override the
    # property.  Checking the class attribute avoids running model code.
    return type(app).is_complete is not Application.is_complete
