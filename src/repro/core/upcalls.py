"""The vectorized upcall plane: grouped policy and workload upcalls.

PR 6's columnar kernel (:mod:`repro.core.fleetarrays`) moved the energy
*data* plane into struct-of-arrays form; the remaining per-app cost of a
tick was the *control* plane — one Python ``on_tick`` per policy and one
``step``/``finish_tick`` pair per workload, ~10 µs/app/tick of pure
dispatch.  This module batches those upcalls the same way: registered
apps are grouped by policy class (and workloads by workload class), and
each stock class supplies an array-level kernel
(``on_tick_batch`` / ``step_batch`` / ``finish_tick_batch``) that makes
every member's decision with numpy ops and touches instances only where
something actually changes.

Byte-parity contract (pinned by ``test_columnar_parity.py``):

- **Segmented decide-then-apply.**  Apps stay in registration order.
  Consecutive batchable apps form a *segment*; any non-batchable app is
  a *fallback barrier* that runs at its exact position on the per-app
  reference path.  Within a segment every kernel first *decides* (pure
  reads: global tick signals, the app's own completion flag and worker
  count — none of which another app's scaling can change), then the
  staged scale actions are *applied* in registration order, so container
  ids, scheduler placement, and any capacity error reproduce the serial
  loop exactly.
- **Batch membership is opt-in and conservative.**  A policy app is
  batchable only when its single registered callback is the bound
  ``on_tick`` of a class whose *own body* declares
  ``batch_compatible = True`` (subclasses do not inherit the flag
  through ``__dict__``, so overriding anything drops the subclass to
  the fallback path automatically).  Workload classes opt in the same
  way and must keep their effects app-local (own containers, own
  attributes, app-unique telemetry keys) — the reordering a class group
  implies is unobservable exactly when that holds.
- **Mid-tick registration changes** (a fallback callback admitting or
  evicting an app, or registering callbacks) bump the ecovisor's
  ``upcall_epoch``; the plane detects the bump between items and
  finishes the remaining apps on the reference path, then rebuilds.

``invoke_policies`` times the fallback barriers and returns their
seconds, which let the engine's profiler split the upcall phase into
``policy_batch``/``policy_fallback`` without double counting.  Each
regroup also sets the ``upcall_routing_apps{path,reason}`` gauge on the
ecovisor's registry, so a tenant that quietly drops to the fallback
path shows at scrape time under the rule that sent it there.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import attrgetter, is_
from time import perf_counter
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.fleetarrays import ServedFractions

__all__ = ["UpcallPlane", "PolicyRows", "WorkloadRows", "TickSignals"]


class TickSignals:
    """The tick-global environment signals a policy kernel decides on.

    The same floats every tick's ``EnergyState`` carries as
    ``grid_carbon_g_per_kwh`` / ``grid_price_usd_per_kwh`` — threshold
    compares against them branch identically to the scalar path.
    """

    __slots__ = ("carbon", "price")

    def __init__(self) -> None:
        self.carbon = 0.0
        self.price = 0.0


class PolicyRows:
    """One policy class's members within a segment, in registration order.

    The view an ``on_tick_batch`` kernel works against: cached static
    attribute columns (:meth:`col` / :meth:`col_int`), per-tick worker
    counts and completion flags (:meth:`refresh`, called by the plane
    before the kernel), and the staging API (:meth:`stage_scale`) that
    records scale actions for the segment's ordered apply pass.
    """

    __slots__ = (
        "plane",
        "cls",
        "kernel",
        "policies",
        "apps",
        "names",
        "idx",
        "n",
        "counts",
        "complete",
        "_static",
        "_lists",
        "_keys",
        "_counts_key",
        "_progress_complete",
        "_totals",
    )

    def __init__(self, plane: "UpcallPlane", cls, members) -> None:
        # members: [(entry index, policy)] in registration order.
        self.plane = plane
        self.cls = cls
        self.kernel = cls.on_tick_batch
        self.idx = [m[0] for m in members]
        self.policies = [m[1] for m in members]
        self.apps = [p._app for p in self.policies]
        self.names = [a.name for a in self.apps]
        self._keys = [(name, "worker") for name in self.names]
        self.n = len(members)
        self.counts = np.zeros(0, dtype=np.int64)
        self.complete = np.zeros(0, dtype=bool)
        self._static: Dict[str, np.ndarray] = {}
        self._lists: Dict[str, list] = {}
        self._counts_key = -1
        # When every member's ``is_complete`` is the un-overridden
        # progress compare (BatchJob's ``_progress >= _total_work -
        # 1e-9``), the per-tick completion refresh vectorizes over the
        # raw attributes instead of calling the property per app.
        from repro.workloads.base import BatchJob  # local: layering, not cycle

        self._progress_complete = all(
            isinstance(a, BatchJob)
            and type(a).is_complete is BatchJob.is_complete
            for a in self.apps
        )
        self._totals: Optional[np.ndarray] = None

    def refresh(self) -> None:
        """Re-derive worker counts (topology-keyed) and completion flags."""
        platform = self.plane.platform
        key = platform._version
        if self._counts_key != key:
            pools = map(platform.running_role_index().get, self._keys, repeat(()))
            self.counts = np.fromiter(map(len, pools), dtype=np.int64, count=self.n)
            self._counts_key = key
        if self._progress_complete:
            totals = self._totals
            if totals is None:
                totals = self._totals = (
                    np.fromiter(
                        map(attrgetter("_total_work"), self.apps),
                        dtype=float,
                        count=self.n,
                    )
                    - 1e-9
                )
            progress = np.fromiter(
                map(attrgetter("_progress"), self.apps),
                dtype=float,
                count=self.n,
            )
            self.complete = progress >= totals
        else:
            self.complete = np.fromiter(
                map(attrgetter("is_complete"), self.apps),
                dtype=bool,
                count=self.n,
            )

    def col(self, attr: str) -> np.ndarray:
        """Cached float column of a static per-policy attribute."""
        arr = self._static.get(attr)
        if arr is None:
            arr = self._static[attr] = np.fromiter(
                map(attrgetter(attr), self.policies),
                dtype=float,
                count=self.n,
            )
        return arr

    def col_int(self, attr: str) -> np.ndarray:
        """Cached int column of a static per-policy attribute."""
        arr = self._static.get(attr)
        if arr is None:
            arr = self._static[attr] = np.fromiter(
                map(attrgetter(attr), self.policies),
                dtype=np.int64,
                count=self.n,
            )
        return arr

    def _list(self, attr: str) -> list:
        values = self._lists.get(attr)
        if values is None:
            values = self._lists[attr] = [
                getattr(p, attr) for p in self.policies
            ]
        return values

    def stage_scale(
        self, targets: np.ndarray, gpu_attr: Optional[str] = None
    ) -> None:
        """Stage the stock threshold-policy scaling pattern.

        Replicates, per member::

            if complete:  scale_workers(0, self._cores)        # if count > 0
            elif count != target:  scale_workers(target, self._cores, gpu)

        where ``gpu`` is ``getattr(self, gpu_attr)`` (False when the
        scalar body passes no gpu argument).  Only mismatches are
        staged, so a steady-state tick applies nothing.
        """
        effective = np.where(self.complete, 0, targets)
        mismatch = np.flatnonzero(self.counts != effective)
        if not mismatch.size:
            return
        cores = self._list("_cores")
        gpus = self._list(gpu_attr) if gpu_attr is not None else None
        complete = self.complete
        policies = self.policies
        idx = self.idx
        actions = self.plane._actions
        for k in mismatch.tolist():
            if complete[k]:
                actions.append((idx[k], policies[k], 0, cores[k], False))
            else:
                actions.append(
                    (
                        idx[k],
                        policies[k],
                        int(targets[k]),
                        cores[k],
                        gpus[k] if gpus is not None else False,
                    )
                )


class _WorkerPlan:
    """One workload group's running-worker topology, keyed per generation.

    ``lists`` are the platform's per-app worker pool lists (read only);
    ``flat``/``flat_member`` concatenate them member-major in launch
    order for the utilization gather; ``written`` tracks which members'
    demand was already pushed to exactly these containers (the scalar
    path rewrites the same value every tick and the container setter
    no-ops on equality, so skipping the rewrite is unobservable).  A
    launch or stop builds a new plan, which carries ``written`` and the
    :meth:`count_column` columns over for every member whose pool list
    survived (``kept``): the platform binds a new list for each pool it
    changes and never mutates one.

    ``utils``/``sums`` cache the finish kernel's effective-utilization
    gather and its per-member sums while ``Container._utilization_epoch``
    stays at ``util_epoch``.
    """

    __slots__ = (
        "lists",
        "counts",
        "offsets",
        "flat",
        "flat_member",
        "written",
        "kept",
        "columns",
        "_carried",
        "util_epoch",
        "utils",
        "sums",
    )

    def __init__(self, lists: list, previous: Optional[_WorkerPlan] = None) -> None:
        n = len(lists)
        self.lists = lists
        self.counts = counts = np.fromiter(map(len, lists), dtype=np.int64, count=n)
        self.offsets = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(counts, out=self.offsets[1:])
        self.flat = list(chain.from_iterable(lists))
        self.flat_member = np.repeat(np.arange(n, dtype=np.intp), counts)
        self.columns: Dict[str, np.ndarray] = {}
        if previous is None:
            self.written = np.zeros(n, dtype=bool)
            self.kept: Optional[np.ndarray] = None
            self._carried: Dict[str, np.ndarray] = {}
        else:
            self.kept = np.fromiter(
                map(is_, lists, previous.lists), dtype=bool, count=n
            )
            self.written = previous.written & self.kept
            self._carried = previous.columns
        self.util_epoch = -1
        self.utils: Optional[np.ndarray] = None
        self.sums: Optional[np.ndarray] = None

    def count_column(self, name: str, apps: list, derive) -> np.ndarray:
        """The float column ``derive(app, worker count)`` over the
        members, derived once per plan.

        ``derive`` must be pure in the member and its worker count.  A
        column the previous plan derived under ``name`` is carried over
        for every member whose pool list survived, so a storm derives
        only the members whose pools changed.
        """
        column = self.columns.get(name)
        if column is None:
            carried = self._carried.get(name)
            if carried is None:
                column = np.fromiter(
                    map(derive, apps, self.counts.tolist()),
                    dtype=float,
                    count=len(apps),
                )
            else:
                column = carried.copy()
                counts = self.counts
                for k in np.flatnonzero(~self.kept).tolist():
                    column[k] = derive(apps[k], int(counts[k]))
            self.columns[name] = column
        return column


class WorkloadRows:
    """One workload class's members within a segment, in engine order."""

    __slots__ = (
        "cls",
        "apps",
        "names",
        "n",
        "platform",
        "updated_progress",
        "step_progress",
        "was_running",
        "warmup",
        "_static",
        "_keys",
        "_plan",
        "_plan_key",
        "_served_names",
        "_served_pos",
    )

    def __init__(self, cls, apps, platform) -> None:
        self.cls = cls
        self.apps = apps
        self.names = [a.name for a in apps]
        self.n = len(apps)
        self.platform = platform
        #: Set by ``BatchJob.finish_tick_batch``: every member's
        #: post-update progress (subclass sweeps read it, e.g. Spark's
        #: auto-checkpoint).
        self.updated_progress: Optional[np.ndarray] = None
        #: Set by ``BatchJob.step_batch`` and consumed (then cleared) by
        #: ``finish_tick_batch`` the same tick: nothing between the two
        #: phases writes ``_progress``, so the finish kernel can reuse
        #: the step kernel's gather instead of re-reading every member.
        self.step_progress: Optional[np.ndarray] = None
        #: Kernel-maintained mirrors of per-app mutable state whose only
        #: writers (for batched members) are the kernels themselves:
        #: gathered once on first use, then updated in lockstep with the
        #: object writes.  A membership change discards the rows — and
        #: with them these columns — so re-gathering covers admit/evict.
        self.was_running: Optional[np.ndarray] = None
        self.warmup: Optional[np.ndarray] = None
        self._static: Dict[str, np.ndarray] = {}
        self._keys = [(name, "worker") for name in self.names]
        self._plan: Optional[_WorkerPlan] = None
        self._plan_key = -1
        self._served_names: Optional[list] = None
        self._served_pos: Optional[np.ndarray] = None

    def col(self, attr: str, dtype=float) -> np.ndarray:
        """Cached column of an immutable per-app attribute."""
        arr = self._static.get(attr)
        if arr is None:
            arr = self._static[attr] = np.fromiter(
                map(attrgetter(attr), self.apps), dtype=dtype, count=self.n
            )
        return arr

    def gather(self, attr: str, dtype=float) -> np.ndarray:
        """Fresh column of a mutable per-app attribute (no caching)."""
        return np.fromiter(
            map(attrgetter(attr), self.apps), dtype=dtype, count=self.n
        )

    def worker_plan(self) -> _WorkerPlan:
        """The group's worker topology, rebuilt when containers come or go."""
        platform = self.platform
        key = platform._version
        if self._plan_key != key:
            pools = map(platform.running_role_index().get, self._keys, repeat(()))
            self._plan = _WorkerPlan(list(pools), self._plan)
            self._plan_key = key
        return self._plan

    def served(self, fractions) -> np.ndarray:
        """Every member's served fraction from settle's
        :class:`~repro.core.fleetarrays.ServedFractions`, 1.0 for a
        member settle did not see.  Members are mapped to the layout's
        positions once per layout."""
        names = fractions.names
        if self._served_names is not names:
            self._served_pos = np.fromiter(
                map(fractions.index.get, self.names, repeat(len(names))),
                dtype=np.intp,
                count=self.n,
            )
            self._served_names = names
        return fractions.column[self._served_pos]


class _Fallback:
    __slots__ = ("reg", "start")

    def __init__(self, reg, start: int) -> None:
        self.reg = reg
        self.start = start


class _Segment:
    __slots__ = ("groups", "start")

    def __init__(self, groups, start: int) -> None:
        self.groups = groups
        self.start = start


def _policy_route(reg):
    """``(policy, reason)``: the policy to batch ``reg`` under, or None
    and the first rule that sends ``reg`` down the fallback path.

    Conservative on purpose: exactly one registered callback, bound to
    ``on_tick`` of an *attached* policy whose own class body opts in
    with ``batch_compatible = True`` and supplies ``on_tick_batch``.
    The reasons are the ``reason`` label values of the
    ``upcall_routing_apps`` gauge.
    """
    callbacks = reg.tick_callbacks
    if len(callbacks) != 1:
        return None, "callback_count"
    callback = callbacks[0]
    policy = getattr(callback, "__self__", None)
    if policy is None:
        return None, "unbound_callback"
    cls = type(policy)
    if not cls.__dict__.get("batch_compatible", False):
        return None, "not_opted_in"
    if getattr(callback, "__func__", None) is not getattr(cls, "on_tick", None):
        return None, "not_on_tick"
    if getattr(cls, "on_tick_batch", None) is None:
        return None, "no_batch_kernel"
    if getattr(policy, "_app", None) is None or getattr(policy, "_api", None) is None:
        return None, "detached"
    return policy, "opted_in"


def _batchable_workload(cls) -> bool:
    return bool(
        cls.__dict__.get("batch_compatible", False)
        and getattr(cls, "step_batch", None) is not None
        and getattr(cls, "finish_tick_batch", None) is not None
    )


class UpcallPlane:
    """Grouped upcall delivery for one engine's batched tick loop."""

    def __init__(self, ecovisor) -> None:
        self._eco = ecovisor
        self.platform = ecovisor.platform
        self._signals = TickSignals()
        self._actions: list = []
        # Policy side: (epoch-keyed) registration-ordered items.
        self._p_epoch = -1
        self._p_items: list = []
        self._p_regs: list = []
        # Workload side: keyed on the engine's snapshot list itself.
        self._w_apps: Optional[list] = None
        self._w_items: list = []
        self._wb_memo: Dict[type, bool] = {}
        # Tenants per (path, reason), set at each regroup; pairs seen
        # once stay exported (at 0 once their tenants have left).
        self._routing = ecovisor.metrics.gauge(
            "upcall_routing_apps",
            "Tenants with a tick callback, by upcall route (batch kernel or "
            "per-app fallback) and the reason for it.",
            labelnames=("path", "reason"),
        )
        self._routes_seen: set = set()

    # -- policy upcalls -------------------------------------------------
    def invoke_policies(self, tick) -> float:
        """Deliver the tick upcalls; returns the seconds spent in fallbacks.

        Byte-equivalent to ``Ecovisor.invoke_app_ticks`` on any fleet:
        segments run their class kernels and apply staged actions in
        registration order; fallback apps run ``Ecovisor._deliver_tick``,
        the reference per-app body, at their exact position.
        """
        eco = self._eco
        epoch = eco.upcall_epoch
        if self._p_epoch != epoch:
            self._rebuild_policies(epoch)
        items = self._p_items
        if not items:
            return 0.0
        fallback_s = 0.0
        signals = self._signals
        signals.carbon = eco.current_carbon_g_per_kwh
        signals.price = eco.current_price_usd_per_kwh
        actions = self._actions
        for item in items:
            if eco.upcall_epoch != epoch:
                # A callback admitted/evicted an app or registered a
                # callback mid-delivery: finish the remaining apps on
                # the reference path and rebuild next tick.
                t0 = perf_counter()
                self._scalar_tail(tick, item.start)
                fallback_s += perf_counter() - t0
                self._p_epoch = -1
                return fallback_s
            if type(item) is _Fallback:
                t0 = perf_counter()
                eco._deliver_tick(tick, item.reg)
                fallback_s += perf_counter() - t0
                continue
            groups = item.groups
            for rows in groups:
                rows.refresh()
                rows.kernel(tick, signals, rows)
            if actions:
                if len(groups) > 1:
                    # Interleaved classes: restore registration order.
                    actions.sort(key=_action_order)
                for _, policy, count, cores, gpu in actions:
                    policy.scale_workers(count, cores, gpu)
                actions.clear()
        return fallback_s

    def _scalar_tail(self, tick, start: int) -> None:
        for reg in self._p_regs[start:]:
            self._eco._deliver_tick(tick, reg)

    def _rebuild_policies(self, epoch: int) -> None:
        eco = self._eco
        regs = list(eco._apps.values())
        self._p_regs = regs
        routes = [_policy_route(reg) if reg.tick_callbacks else None for reg in regs]
        self._publish_routing(routes)
        items: list = []
        i = 0
        n = len(regs)
        while i < n:
            route = routes[i]
            if route is None:
                i += 1
                continue
            if route[0] is None:
                items.append(_Fallback(regs[i], i))
                i += 1
                continue
            # A segment: the maximal run of batchable (or callback-less)
            # apps, grouped by policy class in first-appearance order.
            start = i
            groups: Dict[type, list] = {}
            while i < n:
                route = routes[i]
                if route is None:
                    i += 1
                    continue
                policy = route[0]
                if policy is None:
                    break
                groups.setdefault(type(policy), []).append((i, policy))
                i += 1
            items.append(
                _Segment(
                    [
                        PolicyRows(self, cls, members)
                        for cls, members in groups.items()
                    ],
                    start,
                )
            )
        self._p_items = items
        self._p_epoch = epoch

    def _publish_routing(self, routes: list) -> None:
        """Set ``upcall_routing_apps`` from one regroup's routes."""
        counts: Dict[tuple, int] = {}
        for route in routes:
            if route is not None:
                key = ("fallback" if route[0] is None else "batch", route[1])
                counts[key] = counts.get(key, 0) + 1
        self._routes_seen.update(counts)
        for path, reason in sorted(self._routes_seen):
            self._routing.labels(path=path, reason=reason).set(counts.get((path, reason), 0))

    # -- workload upcalls -----------------------------------------------
    def step_workloads(self, tick, duration_s: float, apps: list) -> None:
        """``app.step`` for the snapshot list, class kernels where opted in."""
        if apps != self._w_apps:
            self._rebuild_workloads(apps)
        for item in self._w_items:
            if type(item) is _Fallback:
                item.reg.step(tick, duration_s)
            else:
                for rows in item.groups:
                    rows.cls.step_batch(tick, duration_s, rows)

    def finish_workloads(
        self, tick, duration_s: float, fractions: ServedFractions, apps: list
    ) -> None:
        """``app.finish_tick`` for the snapshot list, kernels where opted in."""
        if apps != self._w_apps:
            self._rebuild_workloads(apps)
        for item in self._w_items:
            if type(item) is _Fallback:
                app = item.reg
                app.finish_tick(
                    tick, duration_s, fractions.get(app.name, 1.0)
                )
            else:
                for rows in item.groups:
                    rows.cls.finish_tick_batch(tick, duration_s, fractions, rows)

    def _workload_batchable(self, cls) -> bool:
        flag = self._wb_memo.get(cls)
        if flag is None:
            flag = self._wb_memo[cls] = _batchable_workload(cls)
        return flag

    def _rebuild_workloads(self, apps: list) -> None:
        self._w_apps = list(apps)
        platform = self.platform
        items: list = []
        i = 0
        n = len(apps)
        while i < n:
            app = apps[i]
            if not self._workload_batchable(type(app)):
                items.append(_Fallback(app, i))
                i += 1
                continue
            start = i
            groups: Dict[type, list] = {}
            while i < n and self._workload_batchable(type(apps[i])):
                groups.setdefault(type(apps[i]), []).append(apps[i])
                i += 1
            items.append(
                _Segment(
                    [
                        WorkloadRows(cls, members, platform)
                        for cls, members in groups.items()
                    ],
                    start,
                )
            )
        self._w_items = items


def _action_order(action) -> int:
    return action[0]
