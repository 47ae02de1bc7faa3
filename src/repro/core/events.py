"""Event bus for asynchronous upcall notifications.

The paper's ecovisor exposes one periodic upcall, ``tick()``, plus a set of
library-level notifications layered on top of it (Table 2):
``notify_solar_change``, ``notify_carbon_change``, ``notify_battery_full``
and ``notify_battery_empty``.  This module provides the dispatch substrate:
typed events and a small synchronous publish/subscribe bus.  Applications
subscribe through :mod:`repro.core.signals` (``api.signals.on(...)``).

Events are delivered synchronously within the tick in which they occur,
matching the paper's observation that minute-scale ticks are fine-grained
enough for applications to react to external changes (Section 3.1).
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, DefaultDict, Dict, List, Type


@dataclass(frozen=True)
class Event:
    """Base class for all events. ``time_s`` is the simulation timestamp."""

    time_s: float


@dataclass(frozen=True)
class TickEvent(Event):
    """Published once per tick interval, before application upcalls run."""

    tick_index: int = 0


@dataclass(frozen=True)
class SolarChangeEvent(Event):
    """Virtual solar output changed significantly since the previous tick."""

    app_name: str = ""
    previous_w: float = 0.0
    current_w: float = 0.0

    @property
    def delta_w(self) -> float:
        return self.current_w - self.previous_w


@dataclass(frozen=True)
class CarbonChangeEvent(Event):
    """Grid carbon-intensity changed significantly since the previous tick."""

    previous_g_per_kwh: float = 0.0
    current_g_per_kwh: float = 0.0

    @property
    def delta_g_per_kwh(self) -> float:
        return self.current_g_per_kwh - self.previous_g_per_kwh


@dataclass(frozen=True)
class PriceChangeEvent(Event):
    """Grid electricity price changed significantly since the previous tick.

    Published only when a price signal is attached to the ecovisor (the
    market layer); the change threshold is
    ``EcovisorConfig.price_change_threshold_usd_per_kwh``.
    """

    previous_usd_per_kwh: float = 0.0
    current_usd_per_kwh: float = 0.0

    @property
    def delta_usd_per_kwh(self) -> float:
        return self.current_usd_per_kwh - self.previous_usd_per_kwh


@dataclass(frozen=True)
class BatteryFullEvent(Event):
    """An application's virtual battery reached full charge."""

    app_name: str = ""
    charge_level_wh: float = 0.0


@dataclass(frozen=True)
class BatteryEmptyEvent(Event):
    """An application's virtual battery reached its empty floor.

    "Empty" follows the paper's convention: the physical battery treats a
    30% state-of-charge as empty to protect cycle life, so a virtual
    battery is empty when its *usable* energy reaches zero.
    """

    app_name: str = ""


@dataclass(frozen=True)
class AppAdmittedEvent(Event):
    """An application was admitted (its virtual energy system created).

    Published both for pre-run registrations and for mid-run admissions
    through the control plane (:meth:`Ecovisor.admit_app`); the share
    fields record the allocation granted at admission.
    """

    app_name: str = ""
    solar_fraction: float = 0.0
    battery_fraction: float = 0.0
    grid_power_w: float = 0.0


@dataclass(frozen=True)
class AppEvictedEvent(Event):
    """An application was evicted and its account finalized.

    Carries the finalized cumulative ledger figures so an external
    controller tailing the event feed can settle up without a second
    round-trip; the app's containers are already stopped and its
    solar/battery share released when this event is published.
    """

    app_name: str = ""
    energy_wh: float = 0.0
    carbon_g: float = 0.0
    cost_usd: float = 0.0
    containers_stopped: int = 0


@dataclass(frozen=True)
class ShareChangedEvent(Event):
    """An application's energy share was rebalanced at a tick boundary.

    Published from ``begin_tick`` when a pending :meth:`Ecovisor.set_share`
    takes effect, after the tick's snapshots are built — a subscriber
    reading ``state()`` inside its callback observes the rebalanced view.
    """

    app_name: str = ""
    solar_fraction: float = 0.0
    battery_fraction: float = 0.0
    grid_power_w: float = 0.0
    previous_solar_fraction: float = 0.0
    previous_battery_fraction: float = 0.0
    previous_grid_power_w: float = 0.0


EventCallback = Callable[[Event], None]

#: Registry of concrete event types by class name — the wire format's
#: ``type`` discriminator (used by the REST event feed and the client
#: SDK to round-trip events losslessly).
EVENT_TYPES: Dict[str, Type[Event]] = {
    cls.__name__: cls
    for cls in (
        TickEvent,
        SolarChangeEvent,
        CarbonChangeEvent,
        PriceChangeEvent,
        BatteryFullEvent,
        BatteryEmptyEvent,
        AppAdmittedEvent,
        AppEvictedEvent,
        ShareChangedEvent,
    )
}


#: Each registered type's field values in declaration order (every type
#: has at least two fields, so each getter returns a tuple).
_RECORD_FIELDS = {
    cls: attrgetter(*(f.name for f in dataclasses.fields(cls)))
    for cls in EVENT_TYPES.values()
}


def event_record(event: Event) -> tuple:
    """The flat journal record of ``event``: ``(type name, *field values)``.

    Fields follow declaration order, so a :class:`SolarChangeEvent`
    flattens to ``("SolarChangeEvent", time_s, app_name, previous_w,
    current_w)``.  A record holds only strings and numbers, which the
    garbage collector stops tracking once it has seen them.  Only the
    :data:`EVENT_TYPES` types have a record.
    """
    fields = _RECORD_FIELDS.get(type(event))
    if fields is None:
        raise ValueError(f"unregistered event type: {type(event).__name__}")
    return (type(event).__name__, *fields(event))


def solar_change_record(
    time_s: float, app_name: str, previous_w: float, current_w: float
) -> tuple:
    """:func:`event_record` of the :class:`SolarChangeEvent` with these
    fields, for a publisher that journals the change without building
    the event."""
    return ("SolarChangeEvent", time_s, app_name, previous_w, current_w)


def event_from_record(record: tuple) -> Event:
    """The event :func:`event_record` flattened (equal, not identical)."""
    return EVENT_TYPES[record[0]](*record[1:])


def event_to_dict(event: Event) -> Dict[str, Any]:
    """JSON-serializable form of an event: its fields plus ``type``."""
    payload = dataclasses.asdict(event)
    payload["type"] = type(event).__name__
    return payload


def event_from_dict(payload: Dict[str, Any]) -> Event:
    """Reconstruct the event a :func:`event_to_dict` payload describes.

    Round-trips exactly: the rebuilt dataclass compares equal to the
    original, which is what pins the client SDK's event feed to the
    in-process signal deliveries byte-for-byte.
    """
    data = dict(payload)
    type_name = data.pop("type", None)
    cls = EVENT_TYPES.get(type_name)
    if cls is None:
        raise ValueError(f"unknown event type: {type_name!r}")
    fields = (f.name for f in dataclasses.fields(cls))
    return cls(**{name: data[name] for name in fields if name in data})


class EventBus:
    """Synchronous publish/subscribe dispatcher keyed by event type.

    Subscribers for a type receive every published event of exactly that
    type.  Dispatch order is subscription order.  Exceptions raised by a
    subscriber propagate to the publisher: during simulation this converts
    a buggy policy callback into a visible test failure rather than a
    silently swallowed error.
    """

    def __init__(self):
        self._subscribers: DefaultDict[Type[Event], List[EventCallback]] = (
            defaultdict(list)
        )
        self._published_counts: Dict[Type[Event], int] = {}

    def subscribe(self, event_type: Type[Event], callback: EventCallback) -> None:
        """Register ``callback`` for events of exactly ``event_type``."""
        self._subscribers[event_type].append(callback)

    def unsubscribe(self, event_type: Type[Event], callback: EventCallback) -> None:
        """Remove a previously registered callback; no-op if absent."""
        callbacks = self._subscribers.get(event_type, [])
        if callback in callbacks:
            callbacks.remove(callback)

    def publish(self, event: Event) -> int:
        """Deliver ``event`` to its subscribers; returns delivery count."""
        event_type = type(event)
        self._published_counts[event_type] = (
            self._published_counts.get(event_type, 0) + 1
        )
        callbacks = list(self._subscribers.get(event_type, []))
        for callback in callbacks:
            callback(event)
        return len(callbacks)

    def count_unheard(self, event_type: Type[Event], count: int) -> None:
        """Count ``count`` publishes of a type nobody subscribes to.

        For a publisher that skips building events no callback would
        receive: :meth:`published_count` reads as if each had gone
        through :meth:`publish`.
        """
        if self._subscribers.get(event_type):
            raise RuntimeError(f"{event_type.__name__} has subscribers")
        self._published_counts[event_type] = (
            self._published_counts.get(event_type, 0) + count
        )

    def published_count(self, event_type: Type[Event]) -> int:
        """How many events of ``event_type`` have been published."""
        return self._published_counts.get(event_type, 0)

    def subscriber_count(self, event_type: Type[Event]) -> int:
        """How many callbacks are currently registered for a type."""
        return len(self._subscribers.get(event_type, []))
