"""The ecovisor.

The ecovisor is akin to a hypervisor, but virtualizes the energy system of
computing infrastructure rather than the computing resources of a single
server (paper Section 1).  It has privileged access to:

- the physical energy system's component APIs (battery charge controller,
  solar inverter, grid meter),
- the container orchestration platform's management functions (to enforce
  per-container power caps via utilization limits), and
- energy/carbon monitoring services,

and multiplexes them across per-application
:class:`~repro.core.virtual_energy_system.VirtualEnergySystem` instances
(Section 3.3).  Because each virtual battery's rate limits are the
application's fraction of the physical limits, aggregate physical limits
hold by construction.

Tick protocol (driven by :class:`~repro.sim.engine.SimulationEngine`):

1. :meth:`begin_tick` — sample solar and carbon, refresh each app's
   virtual solar (with the one-tick solar buffer of Section 3.1), take
   the phase's immutable :class:`~repro.core.state.EnergyState`
   snapshots, then publish change events (so event subscribers observe
   the fresh snapshot).
2. :meth:`invoke_app_ticks` — deliver the ``tick()`` upcall to every
   registered application callback as ``(tick, state)``, where ``state``
   is the app's snapshot of step 1.
3. (the engine steps workloads, which set container utilization demands)
4. :meth:`settle` — measure per-app power, settle each virtual energy
   system, attribute carbon to apps and containers, take each app's
   settled snapshot, persist telemetry, publish battery full/empty
   events.

Every consumer of a phase (policies, library, REST, telemetry) shares
one snapshot per app by reference instead of re-polling live getters,
and the ``state_builds`` counter reads ``ticks x apps`` on both paths.
The object reference path builds every app's snapshot in
:meth:`begin_tick` and builds its settled successor in :meth:`settle`;
the columnar path (:attr:`Ecovisor.columnar`) builds an app's snapshot
from the phase's columns on the phase's first request for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.carbon.service import CarbonIntensityService
from repro.cluster.container import Container
from repro.cluster.cop import ContainerOrchestrationPlatform
from repro.core.accounting import AppAccount, CarbonLedger, TickSettlement
from repro.core.clock import TickInfo
from repro.core.config import EcovisorConfig, ShareConfig
from repro.core.errors import (
    AuthorizationError,
    ConfigurationError,
    UnknownApplicationError,
)
from repro.core.events import (
    AppAdmittedEvent,
    AppEvictedEvent,
    BatteryEmptyEvent,
    BatteryFullEvent,
    CarbonChangeEvent,
    Event,
    EventBus,
    PriceChangeEvent,
    ShareChangedEvent,
    SolarChangeEvent,
    TickEvent,
    event_record,
    solar_change_record,
)
from repro.core.fleetarrays import FleetArrays, ServedFractions, telemetry_frames
from repro.core.journal import EventJournal, JournalPage
from repro.core.signals import SignalBus
from repro.core.state import BatteryState, EnergyState
from repro.core.units import sequential_sum
from repro.core.virtual_battery import VirtualBattery
from repro.core.virtual_energy_system import VirtualEnergySystem
from repro.energy.system import PhysicalEnergySystem
from repro.market.service import PriceSignal
from repro.obs.metrics import MetricsRegistry
from repro.telemetry.monitor import PowerMonitor
from repro.telemetry.timeseries import Series, TimeSeriesDatabase

TickCallback = Callable[[TickInfo, EnergyState], None]

@dataclass(slots=True)
class _RegisteredApp:
    """Internal bookkeeping for one registered application.

    ``tick_callbacks`` is a tuple rebuilt on registration so the upcall
    loop iterates it directly (the tuple *is* the snapshot) instead of
    copying a list every app every tick.  ``solar_event_threshold_w``
    is the app's share-scaled solar-change threshold, hoisted out of the
    per-tick loop.  ``telemetry`` caches the app's settlement series
    handles (built lazily on first settle).
    """

    name: str
    ves: VirtualEnergySystem
    tick_callbacks: Tuple[TickCallback, ...] = ()
    previous_solar_w: float = 0.0
    battery_was_full: bool = False
    battery_was_empty: bool = False
    state: Optional[EnergyState] = None
    solar_event_threshold_w: float = 0.0
    has_solar_share: bool = False
    telemetry: Optional[Dict[str, Series]] = None
    # Columnar bookkeeping: the app's index in the fleet's layout and
    # in every FleetSnapshot of it, valid while snap_epoch matches the
    # layout's epoch.
    snap_index: int = -1
    snap_epoch: int = -1


class Ecovisor:
    """Multiplexes one physical energy system across applications."""

    def __init__(
        self,
        plant: PhysicalEnergySystem,
        platform: ContainerOrchestrationPlatform,
        carbon_service: CarbonIntensityService,
        config: EcovisorConfig | None = None,
        database: TimeSeriesDatabase | None = None,
        price_signal: Optional[PriceSignal] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self._plant = plant
        self._platform = platform
        self._carbon_service = carbon_service
        self._price_signal = price_signal
        self._config = config or EcovisorConfig()
        self._config.validate()
        self._db = database or TimeSeriesDatabase()
        self._monitor = PowerMonitor(platform, self._db)
        self._ledger = CarbonLedger()
        self._bus = EventBus()
        self._apps: Dict[str, _RegisteredApp] = {}
        self._allocated_solar = 0.0
        self._allocated_battery = 0.0
        self._current_carbon = 0.0
        self._current_price = 0.0
        self._physical_solar_now_w = 0.0
        self._buffered_solar_w: Optional[float] = None
        self._current_tick_index = 0
        self._current_tick_duration_s = self._config.tick_interval_s
        self._carbon_sample_time_s = 0.0
        self._state_builds = 0
        # Columnar hot path (core/fleetarrays.py): fleet state lives in
        # dense per-tenant columns, each tenant's snapshot is built from
        # them on the phase's first request, and telemetry/ledger writes
        # buffer until first read.  None on the object reference path;
        # the engine turns it on for batched runs, once (see columnar).
        self._fleet: Optional[FleetArrays] = None
        self._container_carbon_series: Dict[str, Series] = {}
        # Columnar write-back, split by store: tick records the ledger
        # has taken (_flush_ledger) wait here for the first database
        # read (_flush_database).  The counters back the
        # ledger_write_back_* and telemetry_flush_* metrics.
        self._telemetry_backlog: list = []
        self._ledger_records = 0
        self._ledger_seconds = 0.0
        self._flush_records = 0
        self._flush_seconds = 0.0
        # Control plane v1.1: per-app event journals backing the REST
        # cursor feed, share rebalances staged until the next tick
        # boundary, and a flag marking the begin_tick..settle window so
        # mid-tick admissions get a (counted) snapshot immediately.
        self._journal = EventJournal()
        self._pending_shares: Dict[str, ShareConfig] = {}
        self._in_tick = False
        self._ticks_begun = 0
        # Signal buses handed out per app (via EcovisorAPI.signals);
        # tracked so eviction can cancel the app's subscriptions —
        # broadcast signals carry no app_name, so a dead app's
        # callbacks would otherwise keep firing after eviction.
        self._signal_buses: Dict[str, List[SignalBus]] = {}
        # Observability (obs/): one standalone registry per ecovisor by
        # default, so sweep and test runs don't leak series into the
        # process-wide registry; pass `metrics=default_registry()` (or
        # a child of it) to attach this instance to a shared scrape.
        # Hot paths keep plain int counters — the registry reads them
        # through collect-time callbacks, so being observable costs the
        # tick loop nothing.
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        # Bumped whenever the upcall registration surface changes (app
        # admitted/evicted, tick callback registered); the vectorized
        # upcall plane (core/upcalls.py) keys its grouping on it and
        # detects mid-delivery changes between items.
        self._upcall_epoch = 0
        #: The engine's :class:`~repro.obs.profiler.TickProfiler`
        #: (installed by SimulationEngine; None for a bare ecovisor).
        self.profiler = None
        self._register_metric_callbacks()

    # ------------------------------------------------------------------
    # Wiring and registration
    # ------------------------------------------------------------------
    @property
    def config(self) -> EcovisorConfig:
        return self._config

    @property
    def platform(self) -> ContainerOrchestrationPlatform:
        return self._platform

    @property
    def plant(self) -> PhysicalEnergySystem:
        return self._plant

    @property
    def carbon_service(self) -> CarbonIntensityService:
        return self._carbon_service

    @property
    def price_signal(self) -> Optional[PriceSignal]:
        """The attached electricity-price feed; None when cost-free."""
        return self._price_signal

    @property
    def has_market(self) -> bool:
        return self._price_signal is not None

    @property
    def database(self) -> TimeSeriesDatabase:
        return self._db

    @property
    def ledger(self) -> CarbonLedger:
        return self._ledger

    @property
    def events(self) -> EventBus:
        return self._bus

    @property
    def journal(self) -> EventJournal:
        """Per-application bounded event journals (REST cursor feed)."""
        return self._journal

    @property
    def metrics(self) -> MetricsRegistry:
        """This instance's metrics registry (``GET /v1/metrics`` source)."""
        return self._metrics

    def _register_metric_callbacks(self) -> None:
        """Expose the hot-path counters through collect-time callbacks.

        The journal and the columnar store keep plain integer
        attributes; these callbacks read them only when the registry is
        scraped or rendered, so the tick loop never touches a metric
        object.
        """
        registry = self._metrics
        registry.counter_fn(
            "ticks_begun_total",
            "Engine ticks started (begin_tick calls).",
            lambda: self._ticks_begun,
        )
        registry.counter_fn(
            "state_builds_total",
            "Per-tick EnergyState snapshots built (ticks x apps).",
            lambda: self._state_builds,
        )
        registry.gauge_fn(
            "apps_registered",
            "Applications currently registered.",
            lambda: len(self._apps),
        )
        registry.counter_fn(
            "journal_dropped_total",
            "Events evicted from bounded per-app journal feeds.",
            lambda: self._journal.overflow_dropped_total,
        )
        registry.counter_fn(
            "trace_cache_misses_total",
            "Always 0: every tick samples its signals live, and the "
            "counter stays only while perfbench reads it.",
            lambda: 0,
        )
        registry.counter_fn(
            "fleet_rows_acquired_total",
            "Tenants seeded into the columnar fleet layout from their objects.",
            lambda: self._fleet.rows_acquired if self._fleet else 0,
        )
        registry.counter_fn(
            "fleet_rows_reused_total",
            "Always 0: the columnar fleet re-lays every tenant out densely "
            "and keeps no rows to reuse; the counter stays only while "
            "perfbench reads it.",
            lambda: 0,
        )
        registry.counter_fn(
            "ledger_write_back_records_total",
            "Columnar tick records written back to the carbon ledger.",
            lambda: self._ledger_records,
        )
        registry.counter_fn(
            "ledger_write_back_seconds_total",
            "Seconds spent writing columnar tick records back to the ledger.",
            lambda: self._ledger_seconds,
        )
        registry.counter_fn(
            "telemetry_flush_records_total",
            "Columnar tick records written back to the time-series database.",
            lambda: self._flush_records,
        )
        registry.counter_fn(
            "telemetry_flush_seconds_total",
            "Seconds spent stacking columnar tick records into database frames.",
            lambda: self._flush_seconds,
        )
        registry.gauge_fn(
            "telemetry_pending_records",
            "Columnar tick records not yet written back to the database.",
            lambda: len(self._telemetry_backlog) + (len(self._fleet.pending) if self._fleet else 0),
        )

    def signal_bus_for(self, name: str) -> SignalBus:
        """A typed signal bus scoped to ``name``, tracked for eviction.

        Every bus handed out here has its subscriptions cancelled when
        the application is evicted, so a dead tenant's callbacks can
        never fire into a later tick.
        """
        self._app(name)
        bus = SignalBus(self._bus, name)
        self._signal_buses.setdefault(name, []).append(bus)
        return bus

    def events_for(
        self, name: str, cursor: int = 0, limit: Optional[int] = None
    ) -> JournalPage:
        """Cursor-paged read of an application's journaled signals.

        Unlike the other per-app accessors this stays readable after
        eviction, so an external controller can tail the terminal
        :class:`AppEvictedEvent`.
        """
        return self._journal.read(name, cursor=cursor, limit=limit)

    def _publish(self, event: Event) -> None:
        """Publish on the bus and journal the signal per application.

        Application-scoped signals (``app_name`` set) land in that app's
        feed; broadcast signals (carbon/price changes) land in every
        registered app's feed — mirroring the :class:`SignalBus`
        delivery scoping — as one flat record all feeds share.
        :class:`TickEvent` is not journaled (see
        :mod:`repro.core.journal`).  With :meth:`_publish_solar_changes`
        this costs 0.22 ms of a steady_1k tick (1000 tenants, seed 2023,
        2-vCPU VM), against 0.56–0.62 ms when every feed held event
        objects and every solar change was built as an event.
        """
        self._bus.publish(event)
        if isinstance(event, TickEvent):
            return
        record = event_record(event)
        app_name = getattr(event, "app_name", None)
        append = self._journal.append
        if app_name:
            append(app_name, record)
        else:
            for name in self._apps:
                append(name, record)

    def _publish_solar_changes(
        self,
        time_s: float,
        names: List[str],
        previous: List[float],
        current: List[float],
    ) -> None:
        """Publish the columnar begin phase's solar changes, in order.

        With a :class:`SolarChangeEvent` subscriber on the bus each
        change goes through :meth:`_publish` as an event.  Without one
        no event is built: the bus counts the publishes and each
        tenant's feed takes the flat record the event would have
        journaled.
        """
        if not names:
            return
        if self._bus.subscriber_count(SolarChangeEvent):
            for name, previous_w, current_w in zip(names, previous, current):
                self._publish(SolarChangeEvent(time_s, name, previous_w, current_w))
            return
        self._bus.count_unheard(SolarChangeEvent, len(names))
        append = self._journal.append
        for name, previous_w, current_w in zip(names, previous, current):
            append(name, solar_change_record(time_s, name, previous_w, current_w))

    @property
    def state_builds(self) -> int:
        """How many per-tick :class:`EnergyState` snapshots have been built.

        Exactly ``ticks x apps`` over an engine run: the settled
        snapshot each tick ends with is not counted, and neither are
        on-demand bootstrap snapshots (pre-first-tick ``state()``
        reads).
        """
        return self._state_builds

    def app_names(self) -> List[str]:
        return sorted(self._apps)

    def has_app(self, name: str) -> bool:
        """Whether ``name`` is currently registered (O(1))."""
        return name in self._apps

    @property
    def allocated_solar_fraction(self) -> float:
        """Sum of registered applications' solar fractions."""
        return self._allocated_solar

    @property
    def allocated_battery_fraction(self) -> float:
        """Sum of registered applications' battery fractions."""
        return self._allocated_battery

    def _check_share_headroom(
        self, share: ShareConfig, freed: Optional[ShareConfig] = None
    ) -> None:
        """Validate a requested share against plant capability and headroom.

        ``freed`` is an allocation being released by the same operation
        (the app's current share during a rebalance).
        """
        share.validate()
        freed_solar = freed.solar_fraction if freed is not None else 0.0
        freed_battery = freed.battery_fraction if freed is not None else 0.0
        allocated_solar = self._allocated_solar - freed_solar
        allocated_battery = self._allocated_battery - freed_battery
        if allocated_solar + share.solar_fraction > 1.0 + 1e-9:
            raise ConfigurationError(
                f"solar oversubscribed: {allocated_solar:.2f} allocated, "
                f"{share.solar_fraction:.2f} requested"
            )
        if allocated_battery + share.battery_fraction > 1.0 + 1e-9:
            raise ConfigurationError(
                f"battery oversubscribed: {allocated_battery:.2f} allocated, "
                f"{share.battery_fraction:.2f} requested"
            )
        if share.battery_fraction > 0.0 and not self._plant.has_battery:
            raise ConfigurationError(
                "battery share requested but the plant has no battery"
            )
        if share.solar_fraction > 0.0 and not self._plant.has_renewable:
            raise ConfigurationError(
                "solar share requested but the plant has no solar array"
                " or wind plant"
            )

    def admit_app(self, name: str, share: ShareConfig) -> VirtualEnergySystem:
        """Admit an application: create its virtual energy system.

        Usable both before a run and **mid-run** (the control plane's
        dynamic tenancy): an exogenous policy determines shares (Section
        3.3); the ecovisor only enforces that allocations do not
        oversubscribe the plant.  Publishes :class:`AppAdmittedEvent`
        and opens the app's event-journal feed.  An application
        admitted inside the ``begin_tick``..``settle`` window receives
        its first snapshot immediately (with zero virtual solar — solar
        shares engage at the next tick boundary) and is settled this
        tick.
        """
        if name in self._apps:
            raise ConfigurationError(f"application {name!r} already registered")
        self._check_share_headroom(share)
        # A re-admitted name gets a fresh account; its predecessor's
        # finalized account moves to the ledger archive (still counted
        # in cluster totals).
        self._ledger.reopen(name)
        battery: Optional[VirtualBattery] = None
        if share.battery_fraction > 0.0:
            battery = VirtualBattery(
                self._plant.battery.config, share.battery_fraction
            )
        ves = VirtualEnergySystem(name, share, battery)
        app = _RegisteredApp(
            name=name,
            ves=ves,
            solar_event_threshold_w=(
                self._config.solar_change_threshold_w * share.solar_fraction
            ),
            has_solar_share=share.solar_fraction > 0.0,
        )
        self._apps[name] = app
        self._upcall_epoch += 1
        self._allocated_solar += share.solar_fraction
        self._allocated_battery += share.battery_fraction
        self._journal.ensure_feed(name)
        if self._in_tick:
            app.state = self._build_state(app)
        if self._fleet is not None:
            # The newcomer joins the layout (seeded from the live VES)
            # at the next tick phase's refresh.
            self._fleet.dirty = True
        self._publish(
            AppAdmittedEvent(
                time_s=self._carbon_sample_time_s,
                app_name=name,
                solar_fraction=share.solar_fraction,
                battery_fraction=share.battery_fraction,
                grid_power_w=share.grid_power_w,
            )
        )
        return ves

    def evict_app(self, name: str) -> AppAccount:
        """Evict an application, finalizing its account and shares.

        Stops every container the application still runs, finalizes its
        :class:`AppAccount` in the ledger (the account stays queryable
        and keeps counting toward cluster totals, but refuses further
        settlements), releases the solar/battery allocation back to the
        admission pool, and publishes :class:`AppEvictedEvent` as the
        terminal entry of the app's event feed (the feed itself remains
        readable).  Returns the finalized account.
        """
        app = self._app(name)
        stopped = self._platform.stop_app(name)
        # Release what is *committed*: a staged rebalance already moved
        # the allocation totals to the pending share at set_share time.
        staged = self._pending_shares.pop(name, None)
        share = staged if staged is not None else app.ves.share
        self._allocated_solar = max(0.0, self._allocated_solar - share.solar_fraction)
        self._allocated_battery = max(
            0.0, self._allocated_battery - share.battery_fraction
        )
        del self._apps[name]
        self._upcall_epoch += 1
        if self._fleet is not None:
            self._fleet.dirty = True
        # Cancel the tenant's signal subscriptions: broadcast signals
        # (carbon/price/tick) bypass app scoping, so stale dispatchers
        # would otherwise fire dead callbacks on the next tick.
        for bus in self._signal_buses.pop(name, []):
            bus.cancel_all()
        account = self._ledger.finalize(name)
        self._publish(
            AppEvictedEvent(
                time_s=self._carbon_sample_time_s,
                app_name=name,
                energy_wh=account.energy_wh,
                carbon_g=account.carbon_g,
                cost_usd=account.cost_usd,
                containers_stopped=len(stopped),
            )
        )
        # Retire after the terminal event is journaled, so the feed's
        # last readable entry is the eviction itself.
        self._journal.retire_feed(name)
        return account

    def set_share(self, name: str, share: ShareConfig) -> None:
        """Stage a share rebalance; it takes effect at the next tick boundary.

        Validates immediately (solar and battery fractions across all
        applications must each still sum to <= 1 after the swap) and
        commits the *allocation* immediately — so concurrent admissions
        cannot oversubscribe against the staged share — but the
        application's virtual views are swapped at the top of the next
        ``begin_tick``, where :class:`ShareChangedEvent` is published
        with the fresh snapshot already in place.
        """
        app = self._app(name)
        staged = self._pending_shares.get(name)
        current = staged if staged is not None else app.ves.share
        self._check_share_headroom(share, freed=current)
        self._allocated_solar += share.solar_fraction - current.solar_fraction
        self._allocated_battery += share.battery_fraction - current.battery_fraction
        self._pending_shares[name] = share

    def pending_share(self, name: str) -> Optional[ShareConfig]:
        """The staged (not yet effective) share for an app, if any."""
        self._app(name)
        return self._pending_shares.get(name)

    def _apply_pending_shares(self, time_s: float) -> List[Event]:
        """Apply staged rebalances at the tick boundary; returns events."""
        events: List[Event] = []
        for name, share in self._pending_shares.items():
            app = self._apps.get(name)
            if app is None:
                continue
            previous = app.ves.share
            battery = app.ves.battery
            if share.battery_fraction <= 0.0:
                battery = None
            elif battery is None:
                battery = VirtualBattery(
                    self._plant.battery.config, share.battery_fraction
                )
            elif battery.fraction != share.battery_fraction:
                battery = battery.rescaled(
                    self._plant.battery.config, share.battery_fraction
                )
            app.ves.set_share(share, battery)
            app.solar_event_threshold_w = (
                self._config.solar_change_threshold_w * share.solar_fraction
            )
            app.has_solar_share = share.solar_fraction > 0.0
            # Battery telemetry handles depend on has_battery; rebuild
            # lazily so a share that gains or drops the battery starts
            # or stops the battery series at the boundary.
            app.telemetry = None
            events.append(
                ShareChangedEvent(
                    time_s=time_s,
                    app_name=name,
                    solar_fraction=share.solar_fraction,
                    battery_fraction=share.battery_fraction,
                    grid_power_w=share.grid_power_w,
                    previous_solar_fraction=previous.solar_fraction,
                    previous_battery_fraction=previous.battery_fraction,
                    previous_grid_power_w=previous.grid_power_w,
                )
            )
        self._pending_shares.clear()
        if events and self._fleet is not None:
            # Solar fractions / thresholds / grid shares changed; the
            # dense caches re-derive at this tick's begin phase.
            self._fleet.dirty = True
        return events

    def _app(self, name: str) -> _RegisteredApp:
        try:
            return self._apps[name]
        except KeyError:
            raise UnknownApplicationError(name) from None

    def ves_for(self, name: str) -> VirtualEnergySystem:
        return self._app(name).ves

    def share_for(self, name: str) -> ShareConfig:
        """The application's currently effective share."""
        return self._app(name).ves.share

    def app_shares(self) -> Dict[str, ShareConfig]:
        """Every registered application's effective share, by name."""
        return {name: app.ves.share for name, app in sorted(self._apps.items())}

    def register_tick_callback(self, name: str, callback: TickCallback) -> None:
        """Register an application's ``tick()`` upcall (Table 1).

        The callback receives ``(tick, state)`` where ``state`` is the
        tick's :class:`EnergyState` snapshot.
        """
        app = self._app(name)
        app.tick_callbacks = (*app.tick_callbacks, callback)
        self._upcall_epoch += 1

    @property
    def upcall_epoch(self) -> int:
        """Generation counter for the upcall registration surface.

        Changes whenever an app is admitted or evicted or a tick
        callback is registered; the vectorized upcall plane
        (:mod:`repro.core.upcalls`) keys its app grouping on it.
        """
        return self._upcall_epoch

    # ------------------------------------------------------------------
    # Snapshot access
    # ------------------------------------------------------------------
    def state_for(self, name: str) -> EnergyState:
        """The application's current per-tick snapshot.

        Before the first tick a bootstrap snapshot is built on demand
        (and not cached, so pre-run container launches and demand
        changes stay visible to the next read).
        """
        app = self._app(name)
        if self._fleet is not None:
            state = self._columnar_state(app)
            if state is not None:
                return state
        if app.state is None:
            return self._build_state(app, bootstrap=True)
        return app.state

    def _battery_state(self, ves: VirtualEnergySystem) -> Optional[BatteryState]:
        battery = ves.battery
        if battery is None:
            return None
        return BatteryState(
            charge_level_wh=battery.usable_wh,
            capacity_wh=battery.usable_capacity_wh,
            soc_fraction=battery.soc_fraction,
            discharge_rate_w=battery.last_discharge_w,
            charge_rate_w=battery.last_charge_w,
            max_discharge_w=battery.max_discharge_w,
            charge_target_w=battery.charge_rate_w,
            is_full=battery.is_full,
            is_empty=battery.is_empty,
        )

    def _container_powers(self, name: str) -> Mapping[str, float]:
        # Wrapped at the source: the dict is freshly built by the
        # platform, so the snapshot can adopt the proxy without the
        # defensive copy `_freeze_mapping` makes for foreign mappings.
        return MappingProxyType(self._platform.app_container_powers(name))

    def _build_state(
        self, app: _RegisteredApp, bootstrap: bool = False
    ) -> EnergyState:
        """Build one app's snapshot (counted: once per app per tick).

        Bootstrap builds (pre-first-tick, uncached) stay out of the
        counter so the ``ticks x apps`` invariant holds regardless of
        how often ``state()`` is read before the run starts.
        """
        if not bootstrap:
            self._state_builds += 1
        account = self._ledger.account(app.name)
        return EnergyState(
            app_name=app.name,
            tick_index=self._current_tick_index,
            time_s=self._carbon_sample_time_s,
            duration_s=self._current_tick_duration_s,
            solar_power_w=app.ves.solar_power_w,
            grid_carbon_g_per_kwh=self._current_carbon,
            grid_price_usd_per_kwh=self._current_price,
            has_market=self._price_signal is not None,
            grid_power_w=app.ves.grid_power_w,
            battery=self._battery_state(app.ves),
            container_power_w=self._container_powers(app.name),
            total_energy_wh=account.energy_wh,
            total_carbon_g=account.carbon_g,
            total_cost_usd=account.cost_usd,
            settled=False,
        )

    # ------------------------------------------------------------------
    # Privileged container operations (ownership-checked)
    # ------------------------------------------------------------------
    def owned_container(self, app_name: str, container_id: str) -> Container:
        """The container, after checking ``app_name`` owns it.

        The single ownership gate used by the in-process API, the
        library layer, and the REST surface; raises
        :class:`AuthorizationError` on cross-application access.
        """
        container = self._platform.get_container(container_id)
        if container.app_name != app_name:
            raise AuthorizationError(
                f"application {app_name!r} does not own container {container_id!r}"
            )
        return container

    def launch_container(
        self,
        app_name: str,
        cores: float,
        gpu: bool = False,
        role: str = Container.DEFAULT_ROLE,
    ) -> Container:
        self._app(app_name)  # must be registered
        return self._platform.launch_container(app_name, cores, gpu=gpu, role=role)

    def stop_container(self, app_name: str, container_id: str) -> None:
        self.owned_container(app_name, container_id)
        self._platform.stop_container(container_id)

    def scale_app_to(
        self,
        app_name: str,
        count: int,
        cores: float,
        gpu: bool = False,
        role: str = Container.DEFAULT_ROLE,
    ) -> List[Container]:
        self._app(app_name)
        return self._platform.scale_app_to(app_name, count, cores, gpu=gpu, role=role)

    def set_container_cores(
        self, app_name: str, container_id: str, cores: float
    ) -> None:
        self.owned_container(app_name, container_id)
        self._platform.set_container_cores(container_id, cores)

    def set_container_powercap(
        self, app_name: str, container_id: str, cap_w: Optional[float]
    ) -> None:
        self.owned_container(app_name, container_id)
        self._platform.set_power_cap(container_id, cap_w)

    def containers_for(
        self, app_name: str, role: Optional[str] = None
    ) -> List[Container]:
        if role is not None:
            return self._platform.running_containers_for_role(app_name, role)
        return self._platform.running_containers_for(app_name)

    # ------------------------------------------------------------------
    # Columnar fleet mode (core/fleetarrays.py)
    # ------------------------------------------------------------------
    @property
    def columnar(self) -> bool:
        """Whether tick phases run the struct-of-arrays fleet kernel.

        The switch only turns on.  Turning it on lays the fleet out in
        columns at the next tick phase, which seeds every tenant from
        its objects as it seeds an admission, so an object-path stretch
        may precede it; a columnar ecovisor stays columnar.  Turning it
        off is a no-op on the object path and raises
        :class:`ConfigurationError` once columnar.
        """
        return self._fleet is not None

    @columnar.setter
    def columnar(self, enabled: bool) -> None:
        if enabled and self._fleet is None:
            self._fleet = FleetArrays()
            self._db.set_flush_hook(self._flush_database)
            self._ledger.set_flush_hook(self._flush_ledger)
        elif not enabled and self._fleet is not None:
            raise ConfigurationError(
                "a columnar ecovisor stays columnar: choose the object "
                "reference path before its first columnar tick"
            )

    def _flush_ledger(self) -> None:
        """Write buffered tick records back into the carbon ledger only.

        The ledger's flush hook, so it runs inside whichever call first
        reads the ledger (``admit_app``/``evict_app`` reopen or finalize
        an account, and ``FleetArrays.refresh`` writes back before it
        re-lays the fleet out, so every buffered record shares one names
        list).  The records go to the ledger as one batch
        (:meth:`CarbonLedger.write_back`) and then wait for the database.
        """
        fleet = self._fleet
        if fleet is None or not fleet.pending:
            return
        records = fleet.pending
        fleet.pending = []
        started = perf_counter()
        try:
            self._ledger.write_back(records[0].names, records)
            self._telemetry_backlog.extend(records)
        finally:
            self._ledger_records += len(records)
            self._ledger_seconds += perf_counter() - started

    def _flush_database(self) -> None:
        """Write every buffered tick record back into both stores.

        The database's flush hook: the ledger write-back first, then the
        backlog stacks into frames (:func:`telemetry_frames`), one per
        metric, whose columns each series adopts as one read-only chunk.
        """
        self._flush_ledger()
        records = self._telemetry_backlog
        if not records:
            return
        self._telemetry_backlog = []
        started = perf_counter()
        try:
            for frame in telemetry_frames(records):
                self._db.append_frame(*frame)
        finally:
            self._flush_records += len(records)
            self._flush_seconds += perf_counter() - started

    def _columnar_state(self, app: _RegisteredApp) -> Optional[EnergyState]:
        """The app's snapshot for the current tick phase.

        Built by the phase's :class:`FleetSnapshot` when the app is in
        its layout; otherwise (an admission since the layout was taken,
        or a re-layout mid-settle) the last snapshot handed out for it.
        """
        snap = self._fleet.current_snap
        if snap is not None and app.snap_epoch == snap.epoch:
            app.state = snap.state(app.snap_index)
        return app.state

    # ------------------------------------------------------------------
    # Tick phases
    # ------------------------------------------------------------------
    def begin_tick(self, tick: TickInfo) -> None:
        """Sample the environment, refresh views, build snapshots, publish."""
        time_s = tick.start_s
        self._current_tick_index = tick.index
        self._current_tick_duration_s = tick.duration_s
        self._ticks_begun += 1
        # Tick boundary: staged share rebalances take effect before any
        # sampling, so the tick's virtual solar and snapshots reflect
        # the new shares; their events publish with the other changes.
        share_events = (
            self._apply_pending_shares(time_s) if self._pending_shares else []
        )
        physical_solar = self._plant.renewable_power_w(time_s)
        if not self._config.solar_buffer_enabled or self._buffered_solar_w is None:
            # Buffer disabled (ablation), or first tick where no buffered
            # interval exists yet: expose the current sample directly.
            visible_solar = physical_solar
        else:
            # One-tick buffer (Section 3.1): applications are shown the
            # solar output measured over the previous interval, which the
            # ecovisor banked in reserved battery capacity.
            visible_solar = self._buffered_solar_w
        self._buffered_solar_w = physical_solar
        self._physical_solar_now_w = visible_solar

        # Events are collected while sampling and published only after
        # every app's snapshot is built, so a subscriber reading
        # ``state()`` inside its callback observes this tick's view.
        pending_events: List[Event] = share_events

        # Both signals hold a previous sample from the second tick on (the
        # price signal is fixed for the ecovisor's lifetime); a 0.0 sample
        # is a real reading, so it is compared like any other.
        sampled_before = self._ticks_begun > 1
        previous_carbon = self._current_carbon
        self._current_carbon = self._carbon_service.observe(time_s)
        self._monitor.record_carbon_intensity(time_s, self._current_carbon)

        if (
            sampled_before
            and abs(self._current_carbon - previous_carbon)
            >= self._config.carbon_change_threshold_g_per_kwh
        ):
            pending_events.append(
                CarbonChangeEvent(
                    time_s=time_s,
                    previous_g_per_kwh=previous_carbon,
                    current_g_per_kwh=self._current_carbon,
                )
            )

        if self._price_signal is not None:
            previous_price = self._current_price
            self._current_price = self._price_signal.observe(time_s)
            self._monitor.record_grid_price(time_s, self._current_price)
            if (
                sampled_before
                and abs(self._current_price - previous_price)
                >= self._config.price_change_threshold_usd_per_kwh
            ):
                pending_events.append(
                    PriceChangeEvent(
                        time_s=time_s,
                        previous_usd_per_kwh=previous_price,
                        current_usd_per_kwh=self._current_price,
                    )
                )

        self._carbon_sample_time_s = time_s
        solar_changes = None
        if self._fleet is not None:
            # Bulk path: one vectorized solar refresh plus a dense
            # begin-phase snapshot; each app's EnergyState is built on
            # the phase's first request but still counted as one build
            # per app per tick (the parity-pinned invariant).  The solar
            # changes come back as columns and publish after the other
            # signals, as the object path's events do.
            solar_changes = self._fleet.begin(self, time_s, visible_solar)
            self._state_builds += len(self._apps)
        else:
            for app in self._apps.values():
                new_solar = app.ves.update_solar(visible_solar)
                if (
                    app.has_solar_share
                    and abs(new_solar - app.previous_solar_w)
                    >= app.solar_event_threshold_w
                ):
                    pending_events.append(
                        SolarChangeEvent(
                            time_s=time_s,
                            app_name=app.name,
                            previous_w=app.previous_solar_w,
                            current_w=new_solar,
                        )
                    )
                app.previous_solar_w = new_solar

            # One snapshot build per app per tick: everything the Table 1
            # getters would return during the upcall window, captured once.
            for app in self._apps.values():
                app.state = self._build_state(app)

        # From here until settlement completes, admissions join the
        # in-flight tick (snapshot built on admission, settled below).
        self._in_tick = True
        for event in pending_events:
            self._publish(event)
        if solar_changes is not None:
            self._publish_solar_changes(time_s, *solar_changes)
        self._publish(TickEvent(time_s=time_s, tick_index=tick.index))

    def invoke_app_ticks(self, tick: TickInfo) -> None:
        """Deliver the ``tick()`` upcall to every registered callback.

        Iterates a snapshot of the app table so a callback may admit or
        evict applications mid-delivery: admissions receive their first
        upcall next tick, evicted apps are skipped.
        """
        for app in list(self._apps.values()):
            self._deliver_tick(tick, app)

    def _deliver_tick(self, tick: TickInfo, app: _RegisteredApp) -> None:
        """Deliver ``tick()`` to one app's callbacks, unless it was evicted.

        The per-app body of :meth:`invoke_app_ticks`, and the upcall
        plane's delivery for every app no batch kernel covers.
        """
        # The tuple is an immutable snapshot: callbacks registered
        # during delivery replace it and take effect next tick.
        callbacks = app.tick_callbacks
        if not callbacks or app.name not in self._apps:
            return
        # The app handle is already resolved; only fall back to the
        # name lookup when no columnar snapshot holds it yet.
        state = self._columnar_state(app) if self._fleet is not None else None
        if state is None:
            state = self.state_for(app.name)
        for callback in callbacks:
            callback(tick, state)

    def settle(self, tick: TickInfo) -> ServedFractions:
        """Settle every application's tick; returns served-energy fractions.

        The fraction is 1.0 when the virtual energy system fully met the
        application's demand, lower when the grid share was insufficient —
        power shortages that applications experience as degraded capacity.
        Both paths return a read-only :class:`ServedFractions` mapping;
        ``.get(name, 1.0)`` reads 1.0 for an app this settle did not see.

        Settlement also *finalizes* each app's per-tick snapshot with the
        settled battery state, grid power, measured container power, and
        cumulative ledger totals; telemetry is recorded from that
        finalized snapshot rather than by re-polling live state.
        """
        time_s = tick.start_s
        duration_s = tick.duration_s
        if self._fleet is not None:
            fractions = self._fleet.settle(self, time_s, duration_s)
            self._in_tick = False
            return fractions
        names: List[str] = []
        values: List[float] = []
        total_grid_w = 0.0
        total_solar_used_w = 0.0

        # The object reference path: every measurement is re-derived
        # from the platform (the columnar kernel above reuses one bulk
        # pass and is parity-tested against this).
        container_readings = self._monitor.sample_containers(time_s)
        self._monitor.sample_apps(time_s, self._apps.keys())
        self._monitor.sample_cluster(time_s)

        platform = self._platform
        ledger = self._ledger
        carbon = self._current_carbon
        price = self._current_price
        # Snapshot of the app table: a battery-event subscriber may
        # admit or evict mid-settlement; evicted apps are skipped.
        for app in list(self._apps.values()):
            if app.name not in self._apps:
                continue
            containers = platform.running_containers_for(app.name)
            demand_w = platform.app_power_w(app.name)
            settlement = app.ves.settle(
                demand_w,
                carbon,
                time_s,
                duration_s,
                price_usd_per_kwh=price,
            )
            # The VES validated the settlement before returning it.
            ledger.record(settlement, validate=False)
            app.state = self._finalize_state(app, containers, container_readings)
            self._record_app_telemetry(app, settlement, time_s)
            self._attribute_to_containers(
                containers, settlement, container_readings
            )
            self._publish_battery_events(app, time_s)
            names.append(app.name)
            values.append(
                settlement.served_wh / settlement.demand_wh
                if settlement.demand_wh > 1e-12
                else 1.0
            )
            total_grid_w += settlement.grid_total_wh * 3600.0 / duration_s
            total_solar_used_w += (
                (settlement.solar_used_wh + settlement.solar_to_battery_wh)
                * 3600.0
                / duration_s
            )

        if self._plant.has_grid and total_grid_w > 0:
            self._plant.grid.draw(total_grid_w, duration_s)
        if self._plant.has_renewable and total_solar_used_w > 0:
            self._plant.deliver_renewable(total_solar_used_w, duration_s, time_s)

        aggregate_battery_wh = sequential_sum(
            app.ves.battery.battery.level_wh
            for app in self._apps.values()
            if app.ves.has_battery
        )
        self._monitor.record_plant(
            time_s,
            solar_w=self._physical_solar_now_w,
            battery_level_wh=aggregate_battery_wh,
            grid_power_w=total_grid_w,
        )
        self._monitor.record_app_count(time_s, len(self._apps))
        self._in_tick = False
        values.append(1.0)
        return ServedFractions(names, np.array(values))

    # ------------------------------------------------------------------
    # Settlement helpers
    # ------------------------------------------------------------------
    def _finalize_state(
        self,
        app: _RegisteredApp,
        containers: List[Container],
        container_readings: Dict[str, float],
    ) -> EnergyState:
        """Finalize this tick's snapshot with the settled figures."""
        base = app.state if app.state is not None else self._build_state(app)
        account = self._ledger.account(app.name)
        return base.finalized(
            grid_power_w=app.ves.grid_power_w,
            battery=self._battery_state(app.ves),
            container_power_w=MappingProxyType(
                {c.id: container_readings.get(c.id, 0.0) for c in containers}
            ),
            total_energy_wh=account.energy_wh,
            total_carbon_g=account.carbon_g,
            total_cost_usd=account.cost_usd,
        )

    def _app_telemetry_handles(self, app: _RegisteredApp) -> Dict[str, Series]:
        """Build (once) the app's settlement series handles."""
        db = self._db
        name = app.name
        handles = {
            "carbon_g": db.series_handle(f"app.{name}.carbon_g"),
            "grid_power_w": db.series_handle(f"app.{name}.grid_power_w"),
            "solar_used_wh": db.series_handle(f"app.{name}.solar_used_wh"),
            "unmet_wh": db.series_handle(f"app.{name}.unmet_wh"),
        }
        if self._price_signal is not None:
            handles["cost_usd"] = db.series_handle(f"app.{name}.cost_usd")
        if app.ves.has_battery:
            handles["battery_soc"] = db.series_handle(f"app.{name}.battery_soc")
            handles["battery_level_wh"] = db.series_handle(
                f"app.{name}.battery_level_wh"
            )
            handles["battery_power_w"] = db.series_handle(
                f"app.{name}.battery_power_w"
            )
        return handles

    def _record_app_telemetry(
        self, app: _RegisteredApp, settlement: TickSettlement, time_s: float
    ) -> None:
        """Persist per-app telemetry from the finalized snapshot."""
        handles = app.telemetry
        if handles is None:
            handles = app.telemetry = self._app_telemetry_handles(app)
        state = app.state
        handles["carbon_g"].append(time_s, settlement.carbon_g)
        if self._price_signal is not None:
            handles["cost_usd"].append(time_s, settlement.cost_usd)
        handles["grid_power_w"].append(time_s, state.grid_power_w)
        handles["solar_used_wh"].append(time_s, settlement.solar_used_wh)
        handles["unmet_wh"].append(time_s, settlement.unmet_wh)
        self._monitor.record_app_carbon_rate(
            time_s, app.name, settlement.carbon_rate_mg_per_s
        )
        if state.battery is not None:
            battery = state.battery
            handles["battery_soc"].append(time_s, battery.soc_fraction)
            handles["battery_level_wh"].append(time_s, battery.charge_level_wh)
            # Signed battery power: positive while charging, negative
            # while discharging (the convention of Figure 9b).
            handles["battery_power_w"].append(
                time_s, battery.charge_rate_w - battery.discharge_rate_w
            )

    def _attribute_to_containers(
        self,
        containers: List[Container],
        settlement: TickSettlement,
        container_readings: Dict[str, float],
    ) -> None:
        """Split an app's settled energy and carbon across its containers.

        Attribution is proportional to each container's share of the
        application's measured power, the same resource-usage-based
        attribution as the prototype [48, 60].
        """
        total_power = sequential_sum(
            container_readings.get(c.id, 0.0) for c in containers
        )
        carbon_series = self._container_carbon_series
        for container in containers:
            power = container_readings.get(container.id, 0.0)
            fraction = power / total_power if total_power > 1e-12 else 0.0
            energy = settlement.served_wh * fraction
            carbon = settlement.carbon_g * fraction
            container.record_tick(power, energy, carbon)
            series = carbon_series.get(container.id)
            if series is None:
                series = self._db.series_handle(
                    f"container.{container.id}.carbon_g"
                )
                carbon_series[container.id] = series
            series.append(settlement.time_s, carbon)

    def _publish_battery_events(self, app: _RegisteredApp, time_s: float) -> None:
        if not app.ves.has_battery:
            return
        battery = app.ves.battery
        if battery.is_full and not app.battery_was_full:
            self._publish(
                BatteryFullEvent(
                    time_s=time_s,
                    app_name=app.name,
                    charge_level_wh=battery.usable_wh,
                )
            )
        app.battery_was_full = battery.is_full
        if battery.is_empty and not app.battery_was_empty:
            self._publish(BatteryEmptyEvent(time_s=time_s, app_name=app.name))
        app.battery_was_empty = battery.is_empty

    # ------------------------------------------------------------------
    # Current environment readings (the tick signals every snapshot carries)
    # ------------------------------------------------------------------
    @property
    def next_tick_index(self) -> int:
        """Index of the tick the next ``begin_tick`` will run.

        Before any tick has begun this is the current index itself (a
        fresh clock starts there) — the tick at which staged share
        rebalances and other boundary operations take effect.
        """
        if not self._ticks_begun:
            return self._current_tick_index
        return self._current_tick_index + 1

    @property
    def current_carbon_g_per_kwh(self) -> float:
        return self._current_carbon

    @property
    def current_price_usd_per_kwh(self) -> float:
        """Grid electricity price this tick (0.0 when no market attached)."""
        return self._current_price

    @property
    def physical_solar_w(self) -> float:
        """Solar power visible to applications this tick (post-buffer)."""
        return self._physical_solar_now_w
