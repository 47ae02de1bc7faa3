"""Columnar fleet state: struct-of-arrays over the registered apps.

This module vectorizes the *app* dimension of a tick: one numpy column
entry per registered application for solar allocation, grid draw, and
the cumulative ledger figures, updated in bulk inside
``Ecovisor.begin_tick``/``settle`` instead of once per app per tick.

Design rules (pinned by ``tests/integration/test_columnar_parity.py``):

- **Byte parity.**  Every float the columnar path produces — snapshot
  fields, settlements, telemetry points, event payloads — must be
  bit-identical to the per-app object path.  The kernel therefore
  replays the exact arithmetic of ``VirtualEnergySystem.settle``,
  ``Battery.charge``/``discharge``, and
  ``ServerPowerModel.container_power`` (same operand order, same
  associativity); the stateful battery figures (level, throughput
  meters, last charge/discharge) are written back into each
  ``VirtualBattery`` after the bulk pass so the objects stay the source
  of truth at tick boundaries.
- **Mirrors behind write epochs.**  What settle reads back from the
  objects every tick — the battery sub-fleet's level, last charge and
  discharge power and full/empty flags, the Table 1 knob columns, the
  container powers — is kept in arrays from one settle to the next and
  re-read only after a layout change (:attr:`FleetArrays.epoch`) or
  after a class-level write epoch moved (``Battery._write_epoch``,
  ``VirtualBattery._knob_epoch``, ``Container._utilization_epoch``).
  Every object-side writer bumps one (a container launch, stop or
  resize moves the container cache's own key instead); the kernel's
  own write-back does not, because its mirrors already hold what it
  writes.
- **Dense layout.**  The per-tenant columns hold one entry per
  registered app in registration order.  Any admission, eviction or
  share change re-lays them out (:meth:`FleetArrays.refresh`): a tenant
  of the previous layout carries its figures over from its index there,
  a newcomer is seeded from its objects.  ``begin`` and ``settle`` bind
  new columns every tick instead of writing in place, so a column a
  :class:`FleetSnapshot` holds never changes; the snapshot makes it
  read-only.
- **Plain snapshots, built on request.**  Per-app ``EnergyState``
  objects are built only at the observation boundary
  (``EcovisorAPI.state()``, signal callbacks, REST, telemetry export):
  :meth:`FleetSnapshot.state` builds one on the phase's first request
  and keeps it for the rest of the phase, so a snapshot kept past its
  tick holds its own tick's figures.  Telemetry and ledger writes are
  buffered as :class:`_TickRecord` objects — the settle kernel's own
  ndarrays, so the buffer holds nothing the garbage collector has to
  walk — and written back per store on first read.  A ledger read
  (admissions, evictions and :meth:`FleetArrays.refresh` make one) adds
  the records' columns to the account totals and leaves them waiting
  for the database; the first database read stacks everything waiting
  into frames (:func:`telemetry_frames`), one block per metric.
  Per-tick ``TickSettlement`` objects are built from the retained
  columns only when an account's settlements are read.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import repeat
from operator import attrgetter
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.container import Container
from repro.core.accounting import TickSettlement
from repro.core.events import BatteryEmptyEvent, BatteryFullEvent
from repro.core.state import BatteryState, EnergyState
from repro.core.units import sequential_sum
from repro.core.virtual_battery import VirtualBattery
from repro.energy.battery import Battery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cop import ContainerOrchestrationPlatform
    from repro.core.ecovisor import Ecovisor

class _ContainerCache:
    """Vectorized view of the platform's container population.

    Every listed container is running and placed (the platform's
    invariant), so the cache covers the whole population with no masks.
    Built once per ``platform.version`` — which a launch, stop or core
    resize on that platform moves — in one attribute pass over the
    listed containers; the per-tick quantities (demand and cap
    utilizations) behind :meth:`powers` are re-read only when
    ``Container._utilization_epoch`` moved since the last read.
    """

    __slots__ = (
        "key",
        "clist",
        "ids",
        "apps",
        "cf",
        "cf_idle",
        "cpu_range",
        "gpu_range",
        "gpu_mask",
        "baseline_w",
        "_powers",
        "_powers_list",
        "_powers_epoch",
    )

    def __init__(self, platform: "ContainerOrchestrationPlatform", key: int):
        self._powers_epoch = -1
        self.key = key
        clist = platform.containers()
        self.clist = clist
        server = platform.config.server
        n = len(clist)
        # Launch-order columns: each container's id, app, cores and gpu.
        columns = zip(*map(attrgetter("_id", "_app_name", "_cores", "_gpu"), clist))
        self.ids, self.apps, cores, gpus = tuple(columns) or ((), (), (), ())
        # Same per-element division as the scalar model's core_fraction.
        cf = np.fromiter(cores, dtype=float, count=n) / server.cores
        self.cf = cf
        self.cf_idle = cf * server.idle_power_w
        self.cpu_range = server.max_cpu_power_w - server.idle_power_w
        self.gpu_range = (
            server.max_gpu_power_w - server.max_cpu_power_w
            if server.has_gpu
            else 0.0
        )
        self.gpu_mask = np.fromiter(gpus, dtype=bool, count=n)
        self.baseline_w = platform.baseline_power_w()

    def powers(self) -> np.ndarray:
        """Attributed power of every container, as a read-only array.

        Bit-identical to ``ServerPowerModel.container_power``: the
        breakdown sums as ``(idle + cpu) + gpu`` with ``cpu = (cf * u) *
        range``, and utilizations are already clamped at their setters.
        One vectorized pass, kept until a utilization write moves
        ``Container._utilization_epoch``; every other input is fixed
        for this cache's lifetime.
        """
        if self._powers_epoch != Container._utilization_epoch:
            self._read_powers()
        return self._powers

    def powers_list(self) -> List[float]:
        """:meth:`powers` as a list (the same cached reading)."""
        if self._powers_epoch != Container._utilization_epoch:
            self._read_powers()
        return self._powers_list

    def _read_powers(self) -> None:
        epoch = Container._utilization_epoch
        clist = self.clist
        n = len(clist)
        du = np.fromiter(
            map(attrgetter("_demand_utilization"), clist), dtype=float, count=n
        )
        cap = np.fromiter(
            map(attrgetter("_cap_utilization"), clist), dtype=float, count=n
        )
        u = np.minimum(du, cap)
        gu = np.where(self.gpu_mask, u, 0.0)
        p = (self.cf_idle + (self.cf * u) * self.cpu_range) + (
            self.cf * gu
        ) * self.gpu_range
        # Shared by every tick record and snapshot until the next read.
        p.flags.writeable = False
        self._powers = p
        self._powers_list = p.tolist()
        self._powers_epoch = epoch


class FleetSnapshot:
    """One tick phase's dense observation of the whole fleet.

    Built twice per tick (post-begin, post-settle) over the phase's
    columns, which the snapshot makes read-only: the fleet binds new
    columns for the next phase instead of writing these.  Each tenant's
    :class:`~repro.core.state.EnergyState` is built from them by
    :meth:`state` on the phase's first request.

    A begin-phase snapshot takes its container readings at the phase's
    first :meth:`state` build, not at ``begin_tick`` (policies rarely
    read them mid-upcall); a settle-phase snapshot carries the readings
    settle already has in hand.
    """

    __slots__ = (
        "epoch",
        "names",
        "apps",
        "tick_index",
        "time_s",
        "duration_s",
        "carbon",
        "price",
        "has_market",
        "settled",
        "solar",
        "grid",
        "tot_e",
        "tot_c",
        "tot_cost",
        "knob_target",
        "knob_maxdis",
        "fleet",
        "platform",
        "_plan",
        "_powers_list",
        "_states",
    )

    def __init__(
        self,
        *,
        epoch: int,
        names: List[str],
        apps: list,
        tick_index: int,
        time_s: float,
        duration_s: float,
        carbon: float,
        price: float,
        has_market: bool,
        settled: bool,
        solar: np.ndarray,
        grid: np.ndarray,
        tot_e: np.ndarray,
        tot_c: np.ndarray,
        tot_cost: np.ndarray,
        knob_target: np.ndarray,
        knob_maxdis: np.ndarray,
        fleet: "FleetArrays",
        platform: "ContainerOrchestrationPlatform",
        plan: Optional[_GatherPlan],
        powers_list: Optional[List[float]],
    ):
        self.epoch = epoch
        self.names = names
        self.apps = apps
        self.tick_index = tick_index
        self.time_s = time_s
        self.duration_s = duration_s
        self.carbon = carbon
        self.price = price
        self.has_market = has_market
        self.settled = settled
        self.solar = solar
        self.grid = grid
        self.tot_e = tot_e
        self.tot_c = tot_c
        self.tot_cost = tot_cost
        self.knob_target = knob_target
        self.knob_maxdis = knob_maxdis
        self.fleet = fleet
        self.platform = platform
        self._plan = plan
        self._powers_list = powers_list
        self._states: Dict[int, EnergyState] = {}
        for column in (solar, grid, tot_e, tot_c, tot_cost, knob_target, knob_maxdis):
            column.setflags(write=False)

    def state(self, index: int) -> EnergyState:
        """Tenant ``index``'s snapshot for this phase.

        Built on the phase's first request and kept, so every consumer
        of the phase shares one object.  The battery level, state of
        charge, last rates and full/empty flags are read from the live
        virtual battery, which only settle moves, so they equal what a
        build at phase start would have read; the knobs come from the
        phase's columns.
        """
        state = self._states.get(index)
        if state is not None:
            return state
        plan = self._plan
        if plan is None:
            # Begin phase: the first build reads every container's
            # power, at that moment's utilizations, for the whole phase.
            # No re-layout runs before settle, so the fleet's layout is
            # still this snapshot's.
            cc = self.fleet.container_cache(self.platform)
            plan = self._plan = self.fleet._gather_plan(cc)
            self._powers_list = cc.powers_list()
        lo, hi = plan.bounds[index], plan.bounds[index + 1]
        powers = self._powers_list
        containers = dict(
            zip(plan.ids_flat[lo:hi], [powers[p] for p in plan.flat_pos[lo:hi].tolist()])
        )
        name = self.names[index]
        battery = self.apps[index].ves.battery
        if battery is not None:
            battery = BatteryState(
                charge_level_wh=battery.usable_wh,
                capacity_wh=battery.usable_capacity_wh,
                soc_fraction=battery.soc_fraction,
                discharge_rate_w=battery.last_discharge_w,
                charge_rate_w=battery.last_charge_w,
                max_discharge_w=self.knob_maxdis.item(index),
                charge_target_w=self.knob_target.item(index),
                is_full=battery.is_full,
                is_empty=battery.is_empty,
            )
        state = self._states[index] = EnergyState(
            app_name=name,
            tick_index=self.tick_index,
            time_s=self.time_s,
            duration_s=self.duration_s,
            solar_power_w=self.solar.item(index),
            grid_carbon_g_per_kwh=self.carbon,
            grid_price_usd_per_kwh=self.price,
            has_market=self.has_market,
            grid_power_w=self.grid.item(index),
            battery=battery,
            container_power_w=MappingProxyType(containers),
            total_energy_wh=self.tot_e.item(index),
            total_carbon_g=self.tot_c.item(index),
            total_cost_usd=self.tot_cost.item(index),
            settled=self.settled,
        )
        return state


class ServedFractions(Mapping):
    """Settle's served-energy fraction per tenant: a read-only mapping.

    The fraction is 1.0 when a tenant's virtual energy system fully met
    its demand, lower when its grid share fell short.  ``names`` lists
    the tenants settle saw, ``index`` maps each to its position, and
    ``column`` holds one fraction per name plus a trailing 1.0, the
    fraction of a tenant settle did not see.  Both engine paths return
    this type; on the columnar path ``names`` and ``index`` are the
    fleet layout's own objects, so a workload group maps its members to
    positions once per layout and takes the column
    (:meth:`repro.core.upcalls.WorkloadRows.served`).
    """

    __slots__ = ("names", "index", "column")

    def __init__(
        self,
        names: List[str],
        column: np.ndarray,
        index: Optional[Dict[str, int]] = None,
    ):
        self.names = names
        self.index = dict(zip(names, range(len(names)))) if index is None else index
        column.flags.writeable = False
        self.column = column

    def __getitem__(self, name: str) -> float:
        return self.column.item(self.index[name])

    def __iter__(self):
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)


class _GatherPlan:
    """Settle's per-(container cache, layout) map of the containers onto
    the tenants.

    - ``counts``: per-tenant container counts as floats (the
      ``app.*.containers`` telemetry values; read-only).
    - ``flat_pos``/``flat_app``/``ids_flat``: the tenant-major,
      launch-order container walk the attribution loop follows, as
      positions in the container cache, tenant indexes and container
      ids; ``bounds[i]:bounds[i + 1]`` is tenant ``i``'s stretch.  The
      demand sum rides them too: ``np.bincount`` over ``flat_app``
      accumulates each tenant's container powers left-to-right from
      0.0, the exact IEEE sequence of the object path's per-app
      :func:`~repro.core.units.sequential_sum`.

    Containers of an app outside the layout take no part.
    """

    __slots__ = ("cc", "names", "counts", "flat_pos", "flat_app", "ids_flat", "bounds")

    def __init__(self, cc: _ContainerCache, names: List[str], index: Dict[str, int]):
        self.cc = cc
        self.names = names
        n = len(names)
        codes = np.fromiter(
            map(index.get, cc.apps, repeat(n)), dtype=np.intp, count=len(cc.apps)
        )
        # A stable sort keeps launch order within each tenant; codes of
        # apps outside the layout (n) sort last and are cut off.
        order = np.argsort(codes, kind="stable")
        inside = int(np.count_nonzero(codes < n))
        self.flat_pos = order[:inside]
        self.flat_app = codes[self.flat_pos]
        counts = np.bincount(self.flat_app, minlength=n)
        self.bounds = [0, *np.cumsum(counts).tolist()]
        self.counts = counts.astype(float)
        self.counts.flags.writeable = False
        self.ids_flat = list(map(cc.ids.__getitem__, self.flat_pos.tolist()))


class _TickRecord:
    """One settled tick's buffered telemetry and ledger payload.

    Everything the object path writes eagerly into the time-series
    database and carbon ledger during ``settle`` is parked here instead
    and written back (in tick order) by ``Ecovisor._flush_ledger`` on
    the first ledger read and ``Ecovisor._flush_database`` on the first
    database read.

    A record holds scalars, the settle kernel's ndarrays (per tenant,
    per battery holder, per container) and layout objects settle
    already shares between ticks (``names``, ``counts``, the container
    cache's ``ids``, the gather plan's ``ids_flat``, ``batt_idx``) —
    nothing per tick that the garbage collector tracks.  Every
    settlement is built by :meth:`settlement` when its account's
    settlements are first read; ticks have a positive duration
    (:class:`~repro.core.clock.TickInfo` refuses any other), so every
    column divides by it.
    """

    __slots__ = (
        "time_s",
        "duration_s",
        "carbon",
        "price",
        "has_market",
        "names",
        "demand_w",
        "counts",
        "demand_wh",
        "served",
        "unmet",
        "solar_avail",
        "solar_used",
        "s2b",
        "curtailed",
        "battery_wh",
        "grid_load",
        "g2b",
        "carbon_g",
        "cost",
        "last_grid",
        "batt_idx",
        "batt_soc",
        "batt_level",
        "batt_power",
        "cont_ids",
        "cont_powers",
        "ids_flat",
        "cont_carbon",
        "cluster_power",
    )

    def settlement(self, index: int, app_name: str) -> TickSettlement:
        """Tenant ``index``'s settlement of this tick.

        The columns hold exactly the figures ``VirtualEnergySystem.settle``
        produces on the object path (conserving by construction, so no
        re-validation, as for ``ledger.record(validate=False)``).
        """
        return TickSettlement(
            app_name=app_name,
            time_s=self.time_s,
            duration_s=self.duration_s,
            carbon_intensity_g_per_kwh=self.carbon,
            demand_wh=self.demand_wh.item(index),
            served_wh=self.served.item(index),
            unmet_wh=self.unmet.item(index),
            solar_available_wh=self.solar_avail.item(index),
            solar_used_wh=self.solar_used.item(index),
            solar_to_battery_wh=self.s2b.item(index),
            curtailed_wh=self.curtailed.item(index),
            battery_discharge_wh=self.battery_wh.item(index),
            grid_load_wh=self.grid_load.item(index),
            grid_to_battery_wh=self.g2b.item(index),
            carbon_g=self.carbon_g.item(index),
            price_usd_per_kwh=self.price,
            cost_usd=self.cost.item(index),
        )


#: Empty per-battery/per-container column of a record with no such rows.
_NO_ROWS = np.zeros(0)
_NO_ROWS.flags.writeable = False

#: The ``app.<name>.*`` series every tenant's records fill (``cost_usd``
#: only with a price signal attached) and every battery holder's.
_TENANT_SERIES = (
    "power_w",
    "containers",
    "carbon_g",
    "grid_power_w",
    "solar_used_wh",
    "unmet_wh",
    "carbon_rate_mg_s",
)
_MARKET_TENANT_SERIES = _TENANT_SERIES + ("cost_usd",)
_BATTERY_SERIES = ("battery_soc", "battery_level_wh", "battery_power_w")


def _runs(records: List[_TickRecord], layout: str):
    """(start, stop) of each maximal run of consecutive records that
    share one ``layout`` object."""
    start = 0
    shared = getattr(records[0], layout)
    for k, record in enumerate(records):
        if getattr(record, layout) is not shared:
            yield start, k
            start = k
            shared = getattr(record, layout)
    yield start, len(records)


def _layout(records: List[_TickRecord], layout: str, entities):
    """One family's entity-major layout over ``records``.

    Records of one run share ``layout`` and list their entities (tenant,
    battery holder or container names, each once) as
    ``entities(record)``, in the order of the record's per-entity
    columns.  Returns ``(names, bounds, times, arrange)``: entity
    ``names[k]`` owns positions ``bounds[k]:bounds[k + 1]``, ``times``
    holds each position's tick time, and ``arrange(columns)`` lays one
    per-record list of columns out in that order — each entity's points
    in tick order, even when it spans several layouts (a readmitted
    name, a container under every fleet layout it lived through).  None
    when no record has an entity.
    """
    code_of: Dict[str, int] = {}
    runs = []
    for start, stop in _runs(records, layout):
        keys = entities(records[start])
        n = len(keys)
        if not n:
            continue
        new = [key for key in keys if key not in code_of]
        if new:
            code_of.update(zip(new, range(len(code_of), len(code_of) + len(new))))
        index = np.fromiter(map(code_of.__getitem__, keys), dtype=np.intp, count=n)
        runs.append((start, stop, index))
    if not runs:
        return None
    counts = np.zeros(len(code_of), dtype=np.intp)
    for start, stop, index in runs:
        counts[index] += stop - start
    bounds = np.zeros(len(code_of) + 1, dtype=np.intp)
    np.cumsum(counts, out=bounds[1:])
    # Each point of a run goes to the next free position of its
    # entity's stretch, so the stretch keeps tick order across runs.
    free = bounds[:-1].copy()
    dest = []
    ticks = []
    for start, stop, index in runs:
        dest.append((free[index] + np.arange(stop - start)[:, None]).ravel())
        free[index] += stop - start
        ticks.append(np.array([record.time_s for record in records[start:stop]]).repeat(len(index)))
    dest = np.concatenate(dest)

    def arrange(columns):
        frame = np.empty(len(dest))
        frame[dest] = np.concatenate(columns)
        return frame

    return list(code_of), bounds.tolist(), arrange(ticks), arrange


def telemetry_frames(records: List[_TickRecord]):
    """The database side of buffered tick records, as frames.

    Yields ``(series names, bounds, times, values)`` for
    :meth:`~repro.telemetry.timeseries.TimeSeriesDatabase.append_frame`,
    one frame per metric.  A frame is the metric's ticks x entities
    block stored column-major, one column per series: entity-major, so
    each series reads one contiguous stretch, and ragged where the
    fleet's layout changed inside the backlog (see :func:`_layout`).
    It holds exactly the floats the per-tick, per-point write of the
    object path makes, and the metrics of a family share ``bounds`` and
    ``times``.
    """
    yield (
        ["cluster.power_w"],
        [0, len(records)],
        np.array([record.time_s for record in records]),
        np.array([record.cluster_power for record in records]),
    )
    for layout, entities, prefix, metrics in _FAMILIES:
        found = _layout(records, layout, entities)
        if found is None:
            continue
        names, bounds, times, arrange = found
        if metrics is None:
            metrics = _tenant_metrics(records)
        for suffix, column in metrics:
            if isinstance(column, str):
                column = [getattr(record, column) for record in records]
            yield (
                [f"{prefix}{name}.{suffix}" for name in names],
                bounds,
                times,
                arrange(column),
            )


def _battery_holders(record: _TickRecord) -> List[str]:
    return [record.names[i] for i in record.batt_idx.tolist()]


#: The per-entity series families of a record: the layout object its
#: runs share, its entity names, the series prefix, and each metric's
#: (suffix, record column); the tenant metrics come from
#: :func:`_tenant_metrics`.
_FAMILIES = (
    ("cont_ids", attrgetter("cont_ids"), "container.", (("power_w", "cont_powers"),)),
    ("names", attrgetter("names"), "app.", None),
    (
        "batt_idx",
        _battery_holders,
        "app.",
        tuple(zip(_BATTERY_SERIES, ("batt_soc", "batt_level", "batt_power"))),
    ),
    ("ids_flat", attrgetter("ids_flat"), "container.", (("carbon_g", "cont_carbon"),)),
)


def _tenant_metrics(records: List[_TickRecord]):
    """(suffix, record column or per-record arrays) of every tenant series."""
    rate = [record.carbon_g * 1000.0 / record.duration_s for record in records]
    columns = ("demand_w", "counts", "carbon_g", "last_grid", "solar_used", "unmet", rate)
    # The price signal is fixed for an ecovisor's lifetime, so every
    # record agrees on has_market.
    if records[0].has_market:
        return tuple(zip(_MARKET_TENANT_SERIES, columns + ("cost",)))
    return tuple(zip(_TENANT_SERIES, columns))


#: The per-tenant columns of :class:`FleetArrays`, in layout order.
_COLUMNS = ("solar_w", "grid_w", "tot_e", "tot_c", "tot_cost")


class FleetArrays:
    """Struct-of-arrays fleet state plus the bulk tick kernel.

    The per-tenant columns (:data:`_COLUMNS`) hold one entry per
    registered app, in the layout order of ``names``.  ``begin`` and
    ``settle`` bind new columns each tick (the phase's snapshot holds
    them read-only).

    ``dirty`` marks the layout and the dense per-app caches (solar
    fractions, thresholds, grid shares, the battery sub-fleet) stale;
    any admission, eviction, or share rebalance sets it and the next
    tick phase re-lays the fleet out in one :meth:`refresh` pass,
    bumping ``epoch`` so no snapshot of an older layout is indexed with
    a tenant's new position.

    The kernel checks neither of the two invariants it rests on: every
    container the platform lists is running and placed, so the
    container cache spans the whole population with no masks; and every
    tick has a positive duration (:class:`~repro.core.clock.TickInfo`
    refuses any other), so settle divides by it unguarded.
    """

    def __init__(self):
        self.solar_w = np.zeros(0)
        self.grid_w = np.zeros(0)
        self.tot_e = np.zeros(0)
        self.tot_c = np.zeros(0)
        self.tot_cost = np.zeros(0)
        self.dirty = True
        self.epoch = 0
        # Tenants seeded from their objects by refresh(), read by the
        # metrics registry through a collect-time callback (no metric
        # object in this hot path).
        self.rows_acquired = 0
        self.pending: List[_TickRecord] = []
        self.current_snap: Optional[FleetSnapshot] = None
        self._cc: Optional[_ContainerCache] = None
        # Dense per-app caches, rebuilt by refresh() (insertion order);
        # index maps each name to its position.
        self.apps: list = []
        self.names: List[str] = []
        self.index: Dict[str, int] = {}
        self.frac_solar = np.zeros(0)
        self.thresh = np.zeros(0)
        self.has_solar = np.zeros(0, dtype=bool)
        self.grid_share_w = np.zeros(0)
        self.batt_apps: list = []
        self.batt_objs: list = []
        # Battery sub-fleet caches (parallel to batt_apps): config-derived
        # scalars are fixed for a VirtualBattery's lifetime, and any swap
        # (admission, share rebalance) sets `dirty`, so they refresh with
        # the other dense caches.  Live state (level, knobs) is gathered
        # per settle instead.
        self.batt_idx = np.zeros(0, dtype=np.intp)
        self.batt_vbs: list = []
        self.batt_cap = np.zeros(0)
        self.batt_floor = np.zeros(0)
        self.batt_ceff = np.zeros(0)
        self.batt_deff = np.zeros(0)
        self.batt_maxc = np.zeros(0)
        self.batt_maxd = np.zeros(0)
        # Settle's mirrors of object state, each valid while its key —
        # (epoch, class-level write epoch) — is unchanged: the battery
        # sub-fleet's (level, last discharge, last charge, full, empty)
        # columns, and the knob columns of _knob_cache().
        self._batt_key: Optional[Tuple[int, int]] = None
        self._batt_state: Optional[tuple] = None
        self._knob_key: Optional[Tuple[int, int]] = None
        self._knobs: Optional[tuple] = None
        # Settle's gather plan for one (container cache, layout) pair.
        self._plan: Optional[_GatherPlan] = None

    # ------------------------------------------------------------------
    # Layout refresh
    # ------------------------------------------------------------------
    def refresh(self, eco: "Ecovisor") -> None:
        """Lay the fleet out again from the registered app table.

        Every column is rebuilt in registration order.  A tenant of the
        previous layout (``snap_epoch == epoch``) carries its figures
        over from its index there (``snap_index``); a newcomer is seeded
        from its live virtual energy system and (flushed) ledger
        account.  The first refresh finds no previous layout and seeds
        every tenant that way, which is how a columnar run picks up
        after an object-path stretch.
        """
        # The ledger must be current before seeding cumulative columns
        # (and every record it takes shares this layout's names).
        eco._flush_ledger()
        apps = list(eco._apps.values())
        n = len(apps)
        ledger = eco._ledger
        epoch = self.epoch
        columns = [np.empty(n) for _ in _COLUMNS]
        solar_w, grid_w, tot_e, tot_c, tot_cost = columns
        kept: List[int] = []
        kept_from: List[int] = []
        for i, app in enumerate(apps):
            if app.snap_epoch == epoch:
                kept.append(i)
                kept_from.append(app.snap_index)
                continue
            self.rows_acquired += 1
            ves = app.ves
            solar_w[i] = ves.solar_power_w
            grid_w[i] = ves.grid_power_w
            account = ledger.account(app.name)
            tot_e[i] = account.energy_wh
            tot_c[i] = account.carbon_g
            tot_cost[i] = account.cost_usd
        index = np.array(kept, dtype=np.intp)
        source = np.array(kept_from, dtype=np.intp)
        for name, column in zip(_COLUMNS, columns):
            column[index] = getattr(self, name)[source]
            setattr(self, name, column)
        self.apps = apps
        self.names = names = [app.name for app in apps]
        self.index = dict(zip(names, range(n)))
        self.frac_solar = np.fromiter(
            (app.ves.share.solar_fraction for app in apps), dtype=float, count=n
        )
        self.thresh = np.fromiter(
            (app.solar_event_threshold_w for app in apps), dtype=float, count=n
        )
        self.has_solar = np.fromiter(
            (app.has_solar_share for app in apps), dtype=bool, count=n
        )
        self.grid_share_w = np.fromiter(
            (app.ves.share.grid_power_w for app in apps), dtype=float, count=n
        )
        self.batt_apps = [
            (i, app) for i, app in enumerate(apps) if app.ves.battery is not None
        ]
        self.batt_objs = [app for _, app in self.batt_apps]
        m = len(self.batt_apps)
        self.batt_idx = np.fromiter(
            (i for i, _ in self.batt_apps), dtype=np.intp, count=m
        )
        vbs = [app.ves.battery for _, app in self.batt_apps]
        self.batt_vbs = vbs
        self.batt_cap = np.fromiter(
            (vb.battery.capacity_wh for vb in vbs), dtype=float, count=m
        )
        self.batt_floor = np.fromiter(
            (vb.battery.floor_wh for vb in vbs), dtype=float, count=m
        )
        self.batt_ceff = np.fromiter(
            (vb.battery.config.charge_efficiency for vb in vbs), dtype=float, count=m
        )
        self.batt_deff = np.fromiter(
            (vb.battery.config.discharge_efficiency for vb in vbs),
            dtype=float,
            count=m,
        )
        self.batt_maxc = np.fromiter(
            (vb.battery.max_charge_power_w for vb in vbs), dtype=float, count=m
        )
        self.batt_maxd = np.fromiter(
            (vb.battery.max_discharge_power_w for vb in vbs), dtype=float, count=m
        )
        self.epoch = epoch = epoch + 1
        for i, app in enumerate(apps):
            app.snap_index = i
            app.snap_epoch = epoch
        self.dirty = False

    def _knob_cache(self) -> tuple:
        """The Table 1 battery knobs as read-only columns.

        ``(target, maxdis, knob_target, knob_maxdis)``: the charge-rate
        target and discharge cap over the battery sub-fleet, then the
        same as dense per-tenant snapshot columns (0.0 for tenants
        without a battery).  One cache serves settle's battery pass and
        both phase snapshots; it re-reads the objects only after a
        layout change or a knob write (``VirtualBattery._knob_epoch``).
        """
        key = (self.epoch, VirtualBattery._knob_epoch)
        if self._knob_key != key:
            vbs = self.batt_vbs
            m = len(vbs)
            target = np.fromiter(
                map(attrgetter("_charge_rate_w"), vbs), dtype=float, count=m
            )
            maxdis = np.fromiter(
                map(attrgetter("_max_discharge_w"), vbs), dtype=float, count=m
            )
            n = len(self.names)
            knob_target = np.zeros(n)
            knob_maxdis = np.zeros(n)
            knob_target[self.batt_idx] = target
            knob_maxdis[self.batt_idx] = maxdis
            knobs = (target, maxdis, knob_target, knob_maxdis)
            for column in knobs:
                column.flags.writeable = False
            self._knobs = knobs
            self._knob_key = key
        return self._knobs

    def _reread_knobs(
        self, knob_target: np.ndarray, knob_maxdis: np.ndarray, start: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Snapshot knob columns with battery holders ``start:`` re-read
        from the objects (copies; the cached columns stay as they are)."""
        knob_target = knob_target.copy()
        knob_maxdis = knob_maxdis.copy()
        vbs = self.batt_vbs[start:]
        bidx = self.batt_idx[start:]
        knob_target[bidx] = [vb._charge_rate_w for vb in vbs]
        knob_maxdis[bidx] = [vb._max_discharge_w for vb in vbs]
        return knob_target, knob_maxdis

    def container_cache(
        self, platform: "ContainerOrchestrationPlatform"
    ) -> _ContainerCache:
        key = platform.version
        cc = self._cc
        if cc is None or cc.key != key:
            cc = self._cc = _ContainerCache(platform, key)
        return cc

    def _gather_plan(self, cc: _ContainerCache) -> _GatherPlan:
        """Settle's gather plan over the container cache and the layout,
        built once per (topology, registration) generation."""
        plan = self._plan
        if plan is None or plan.cc is not cc or plan.names is not self.names:
            plan = self._plan = _GatherPlan(cc, self.names, self.index)
        return plan

    # ------------------------------------------------------------------
    # Tick phases (called from Ecovisor.begin_tick / settle)
    # ------------------------------------------------------------------
    def begin(
        self, eco: "Ecovisor", time_s: float, visible_solar: float
    ) -> Tuple[List[str], List[float], List[float]]:
        """Bulk solar refresh + begin-phase snapshot.

        Returns the tick's solar changes as columns — the flagged
        tenants' names, previous and current virtual solar, in app
        order — for ``Ecovisor.begin_tick`` to publish.
        """
        if self.dirty:
            self.refresh(eco)
        names = self.names
        new = visible_solar * self.frac_solar
        prev = self.solar_w
        flagged = np.flatnonzero(self.has_solar & (np.abs(new - prev) >= self.thresh))
        changes = (
            [names[i] for i in flagged.tolist()],
            prev[flagged].tolist(),
            new[flagged].tolist(),
        )
        self.solar_w = new
        # Only the snapshot's knob columns come from the objects, and
        # only after a knob write: settle reads solar from the arrays,
        # so VES-held per-tick solar stays stale on a columnar ecovisor
        # (all apps alike), which never returns to the object path.
        knob_target, knob_maxdis = self._knob_cache()[2:]
        self.current_snap = FleetSnapshot(
            epoch=self.epoch,
            names=names,
            apps=self.apps,
            tick_index=eco._current_tick_index,
            time_s=time_s,
            duration_s=eco._current_tick_duration_s,
            carbon=eco._current_carbon,
            price=eco._current_price,
            has_market=eco._price_signal is not None,
            settled=False,
            solar=new,
            grid=self.grid_w,
            tot_e=self.tot_e,
            tot_c=self.tot_c,
            tot_cost=self.tot_cost,
            knob_target=knob_target,
            knob_maxdis=knob_maxdis,
            fleet=self,
            platform=eco._platform,
            plan=None,
            powers_list=None,
        )
        return changes

    def settle(
        self, eco: "Ecovisor", time_s: float, duration_s: float
    ) -> ServedFractions:
        """Settle the whole fleet in bulk; returns served-energy fractions.

        One vectorized pass replays ``VirtualEnergySystem.settle``
        arithmetic for every app; rows with a virtual battery get a
        second vectorized pass replaying the charge/discharge model,
        with the resulting battery state scattered back into the
        ``VirtualBattery`` objects.
        """
        if self.dirty:
            self.refresh(eco)
        apps = self.apps
        names = self.names
        n = len(apps)
        cc = self.container_cache(eco._platform)
        powers = cc.powers()
        powers_list = cc.powers_list()
        plan = self._gather_plan(cc)
        flat_pos = plan.flat_pos
        flat_app = plan.flat_app
        # bincount accumulates each app's container powers from 0.0 in
        # launch order — the exact IEEE sequence of the object path's
        # per-app demand sum, ``app_power_w`` (an app without
        # containers reads 0.0, as the object path's int 0 does once
        # telemetry stores it).
        if len(flat_app):
            demand_arr = np.bincount(
                flat_app, weights=powers[flat_pos], minlength=n
            )
        else:
            demand_arr = np.zeros(n)

        carbon = eco._current_carbon
        price = eco._current_price
        hrs = duration_s / 3600.0
        demand_wh = demand_arr * hrs
        solar_wh = self.solar_w * hrs
        solar_used = np.minimum(demand_wh, solar_wh)
        deficit = demand_wh - solar_used
        excess = solar_wh - solar_used
        grid_cap_wh = self.grid_share_w * hrs
        grid_load = np.minimum(deficit, grid_cap_wh)
        unmet = deficit - grid_load
        s2b = np.zeros(n)
        g2b = np.zeros(n)
        battery_wh = np.zeros(n)
        curtailed = excess.copy()
        served = solar_used + grid_load
        grid_total = grid_load.copy()
        carbon_g = grid_total / 1000.0 * carbon
        cost = grid_total / 1000.0 * price
        last_grid = grid_total / hrs

        batt_idx = self.batt_idx
        batt_soc = batt_level = batt_power = _NO_ROWS
        batt_apps = self.batt_apps
        m = len(batt_apps)
        # The settle snapshot's knobs start as the columns the battery
        # pass settles under; the edge loop re-reads them past a tenant
        # whose battery events moved them.
        target, maxdis, knob_target, knob_maxdis = self._knob_cache()
        if m:
            # Vectorized replay of the VES battery settlement (steps 2
            # and 4 of `VirtualEnergySystem.settle`) over the battery
            # sub-fleet.  Every line mirrors one arithmetic step of
            # `Battery.charge`/`discharge` — same operand order, same
            # associativity — so the figures are bit-identical to the
            # object path; skipped branches contribute exact 0.0 terms,
            # which are additive/clamp identities on the state updates.
            vbs = self.batt_vbs
            bidx = self.batt_idx
            bcap = self.batt_cap
            bfloor = self.batt_floor
            ceff = self.batt_ceff
            deff = self.batt_deff
            maxc = self.batt_maxc
            maxd_phys = self.batt_maxd
            # Live state: the mirrors this kernel left at the last settle,
            # unless the layout changed or something else wrote a
            # battery since (the object path, a share rescale).
            batt_key = (self.epoch, Battery._write_epoch)
            if self._batt_key == batt_key:
                level, prev_dis, prev_chg, was_full, was_empty = self._batt_state
            else:
                level = np.fromiter(
                    map(attrgetter("_battery._level_wh"), vbs), dtype=float, count=m
                )
                prev_dis = np.fromiter(
                    map(attrgetter("_last_discharge_w"), vbs), dtype=float, count=m
                )
                prev_chg = np.fromiter(
                    map(attrgetter("_last_charge_w"), vbs), dtype=float, count=m
                )
                batt_objs = self.batt_objs
                was_full = np.fromiter(
                    map(attrgetter("battery_was_full"), batt_objs), dtype=bool, count=m
                )
                was_empty = np.fromiter(
                    map(attrgetter("battery_was_empty"), batt_objs), dtype=bool, count=m
                )
            deficit_b = deficit[bidx]
            excess_b = excess[bidx]
            gcap_b = grid_cap_wh[bidx]

            # Step 2: discharge up to the app's cap (Battery.discharge).
            limited = np.minimum(deficit_b / hrs, maxdis)
            out_wh = np.minimum(
                np.minimum(limited, maxd_phys) * hrs,
                np.maximum(0.0, level - bfloor) * deff,
            )
            out_wh = np.where(limited > 0.0, out_wh, 0.0)
            level = np.maximum(0.0, np.minimum(bcap, level - out_wh / deff))
            delivered = out_wh / hrs
            batt_wh_b = delivered * hrs
            deficit_b = deficit_b - batt_wh_b

            # Step 3: grid covers the residual, up to the grid share.
            grid_load_b = np.minimum(np.maximum(0.0, deficit_b), gcap_b)
            unmet_b = np.maximum(0.0, deficit_b - grid_load_b)

            # Step 4a: excess solar charges the battery (Battery.charge).
            in1 = np.minimum(
                np.minimum(excess_b / hrs, maxc) * hrs,
                np.maximum(0.0, bcap - level) / ceff,
            )
            in1 = np.where(excess_b > 0.0, in1, 0.0)
            level = np.maximum(0.0, np.minimum(bcap, level + in1 * ceff))
            s2b_b = (in1 / hrs) * hrs

            # Step 4b: the charge-rate knob tops up from the grid.
            solar_charge_w = s2b_b / hrs
            grid_headroom = np.maximum(0.0, gcap_b - grid_load_b)
            top_up = np.minimum(target - solar_charge_w, grid_headroom / hrs)
            in2 = np.minimum(
                np.minimum(top_up, maxc) * hrs,
                np.maximum(0.0, bcap - level) / ceff,
            )
            in2 = np.where((target > solar_charge_w) & (top_up > 0.0), in2, 0.0)
            level = np.maximum(0.0, np.minimum(bcap, level + in2 * ceff))
            g2b_b = (in2 / hrs) * hrs
            last_charge_b = (s2b_b + g2b_b) / hrs

            # Step 5 and attribution.
            curtailed_b = excess_b - s2b_b
            served_b = solar_used[bidx] + batt_wh_b + grid_load_b
            grid_total_b = grid_load_b + g2b_b
            carbon_b = grid_total_b / 1000.0 * carbon
            cost_b = grid_total_b / 1000.0 * price
            last_grid_b = grid_total_b / hrs

            served[bidx] = served_b
            unmet[bidx] = unmet_b
            s2b[bidx] = s2b_b
            curtailed[bidx] = curtailed_b
            battery_wh[bidx] = batt_wh_b
            grid_load[bidx] = grid_load_b
            g2b[bidx] = g2b_b
            grid_total[bidx] = grid_total_b
            carbon_g[bidx] = carbon_b
            cost[bidx] = cost_b
            last_grid[bidx] = last_grid_b

            # Write the settled battery state back into the objects —
            # they remain the source of truth between ticks (snapshot
            # builds and share rebalances read them).  The accumulator
            # order (discharge, solar charge, grid top-up) matches the
            # object path's call order.
            # Only rows whose battery state actually moved need the
            # object write-back: for an idle battery every write below
            # is value-identical (level round-trips through identity
            # clamps, the accumulators gain exact 0.0, the last-power
            # figures already equal their targets), so skipping them is
            # unobservable — and most of a large fleet's batteries are
            # idle on most ticks.  The write-back skips the write epoch:
            # the mirrors below already hold what it writes.
            touched = (
                (out_wh != 0.0)
                | (in1 != 0.0)
                | (in2 != 0.0)
                | (delivered != prev_dis)
                | (last_charge_b != prev_chg)
            )
            lvl_l = level.tolist()
            out_l = out_wh.tolist()
            in1_l = in1.tolist()
            in2_l = in2.tolist()
            ldis_l = delivered.tolist()
            lchg_l = last_charge_b.tolist()
            for k in np.flatnonzero(touched).tolist():
                vb = vbs[k]
                b = vb._battery
                b._level_wh = lvl_l[k]
                e = out_l[k]
                b._total_discharged_wh += e
                e = in1_l[k]
                b._total_charged_wh += e
                e = in2_l[k]
                b._total_charged_wh += e
                vb._last_discharge_w = ldis_l[k]
                vb._last_charge_w = lchg_l[k]

            # Battery full/empty edges, published after the bulk compute
            # but in the same per-app order as the object loop.  Two
            # documented edges remain, both of a subscriber acting
            # mid-settle: one that mutates tenancy sees a later phase of
            # the tick than on the object path, and one that turns
            # *another* tenant's knob changes that tenant's same-tick
            # settlement only on the object path (its own knob settles
            # next tick on both).
            usable_arr = np.maximum(0.0, level - bfloor)
            full_arr = np.maximum(0.0, bcap - level) <= 1e-9
            empty_arr = usable_arr <= 1e-9
            batt_soc = level / bcap
            batt_level = usable_arr
            # Signed battery power (charging positive).
            batt_power = last_charge_b - delivered
            # The per-app edge loop only needs apps whose full/empty
            # state changed; for the (overwhelmingly common) steady
            # rows the flag write is value-identical and no event
            # fires.  The masked walk stays in ascending app order, so
            # event interleaving matches the full loop.
            edges = (full_arr != was_full) | (empty_arr != was_empty)
            if edges.any():
                full_l = full_arr.tolist()
                empty_l = empty_arr.tolist()
                usable_l = usable_arr.tolist()
                for k in np.flatnonzero(edges).tolist():
                    i, app = batt_apps[k]
                    knob_epoch = VirtualBattery._knob_epoch
                    if full_l[k] and not app.battery_was_full:
                        eco._publish(
                            BatteryFullEvent(
                                time_s=time_s,
                                app_name=app.name,
                                charge_level_wh=usable_l[k],
                            )
                        )
                    app.battery_was_full = full_l[k]
                    if empty_l[k] and not app.battery_was_empty:
                        eco._publish(
                            BatteryEmptyEvent(time_s=time_s, app_name=app.name)
                        )
                    app.battery_was_empty = empty_l[k]
                    if VirtualBattery._knob_epoch != knob_epoch:
                        # The object path finalizes this tenant's
                        # snapshot before its events and every later
                        # holder's after them.
                        knob_target, knob_maxdis = self._reread_knobs(
                            knob_target, knob_maxdis, k + 1
                        )
            self._batt_state = (level, delivered, last_charge_b, full_arr, empty_arr)
            self._batt_key = batt_key

        # The settled columns: new arrays (the begin snapshot holds the
        # old ones), summed exactly like the per-tick column adds the
        # ledger write-back will make.
        self.grid_w = last_grid
        self.tot_e = self.tot_e + served
        self.tot_c = self.tot_c + carbon_g
        self.tot_cost = self.tot_cost + cost

        # Eager container attribution: container objects are live state
        # (policies read cumulative energy/carbon), only the series
        # writes are buffered.  The per-container shares are elementwise
        # (no reductions), so the vectorized arithmetic is bit-identical
        # to the object path's `power / total`, `served * fraction`.
        cont_carbon = _NO_ROWS
        if flat_pos.size:
            powers_flat = powers[flat_pos]
            tot_rep = demand_arr[flat_app]
            frac = np.divide(
                powers_flat,
                tot_rep,
                out=np.zeros(len(powers_flat)),
                where=tot_rep > 1e-12,
            )
            pw_l = powers_flat.tolist()
            energy_l = (served[flat_app] * frac).tolist()
            cont_carbon = carbon_g[flat_app] * frac
            carbon_l = cont_carbon.tolist()
            clist = cc.clist
            pos_l = flat_pos.tolist()
            # Inlined Container.record_tick: three attribute writes per
            # container, hot enough at fleet scale to skip the call.
            for j in range(len(pos_l)):
                c = clist[pos_l[j]]
                c._last_power_w = pw_l[j]
                c._energy_wh += energy_l[j]
                c._carbon_g += carbon_l[j]

        # One entry past the layout: the 1.0 of a tenant settle did not see.
        column = np.ones(n + 1)
        np.divide(served, demand_wh, out=column[:n], where=demand_wh > 1e-12)

        # Elementwise terms vectorize bit-identically; the running sums
        # stay sequential in app order (their IEEE sequence is the parity
        # contract, so no np.sum/fsum here).
        total_grid_w = 0.0
        for v in (grid_total * 3600.0 / duration_s).tolist():
            total_grid_w += v
        total_solar_used_w = 0.0
        for v in ((solar_used + s2b) * 3600.0 / duration_s).tolist():
            total_solar_used_w += v

        plant = eco._plant
        if plant.has_grid and total_grid_w > 0:
            plant.grid.draw(total_grid_w, duration_s)
        if plant.has_renewable and total_solar_used_w > 0:
            plant.deliver_renewable(total_solar_used_w, duration_s, time_s)

        # Same accumulation (order, operand values) as the object
        # path's sequential_sum over app.ves.battery.battery.level_wh,
        # reading the slots the property chain forwards to — ~1.5k
        # property hops per tick on a battery-heavy fleet otherwise.
        aggregate_battery_wh = 0.0
        for vb in self.batt_vbs:
            aggregate_battery_wh += vb._battery._level_wh
        # Plant and app-count telemetry stay eager: their series never
        # receive buffered writes, so eager/buffered order per series is
        # preserved.
        eco._monitor.record_plant(
            time_s,
            solar_w=eco._physical_solar_now_w,
            battery_level_wh=aggregate_battery_wh,
            grid_power_w=total_grid_w,
        )
        eco._monitor.record_app_count(time_s, len(eco._apps))

        record = _TickRecord()
        record.time_s = time_s
        record.duration_s = duration_s
        record.carbon = carbon
        record.price = price
        record.has_market = eco._price_signal is not None
        record.names = names
        record.demand_w = demand_arr
        record.counts = plan.counts
        record.demand_wh = demand_wh
        record.served = served
        record.unmet = unmet
        record.solar_avail = solar_wh
        record.solar_used = solar_used
        record.s2b = s2b
        record.curtailed = curtailed
        record.battery_wh = battery_wh
        record.grid_load = grid_load
        record.g2b = g2b
        record.carbon_g = carbon_g
        record.cost = cost
        record.last_grid = last_grid
        record.batt_idx = batt_idx
        record.batt_soc = batt_soc
        record.batt_level = batt_level
        record.batt_power = batt_power
        record.cont_ids = cc.ids
        record.cont_powers = powers
        record.ids_flat = plan.ids_flat
        record.cont_carbon = cont_carbon
        # Left to right over every container, as the object path's
        # cluster_power_w sums them.
        record.cluster_power = sequential_sum(powers) + cc.baseline_w
        self.pending.append(record)

        self.current_snap = FleetSnapshot(
            epoch=self.epoch,
            names=names,
            apps=apps,
            tick_index=eco._current_tick_index,
            time_s=time_s,
            duration_s=duration_s,
            carbon=carbon,
            price=price,
            has_market=eco._price_signal is not None,
            settled=True,
            solar=self.solar_w,
            grid=last_grid,
            tot_e=self.tot_e,
            tot_c=self.tot_c,
            tot_cost=self.tot_cost,
            knob_target=knob_target,
            knob_maxdis=knob_maxdis,
            fleet=self,
            platform=eco._platform,
            plan=plan,
            powers_list=powers_list,
        )
        return ServedFractions(names, column, self.index)
