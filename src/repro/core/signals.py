"""Typed per-application signal subscriptions (API v1).

The paper's Table 2 library lists change notifications
(``notify_solar_change`` and friends).  API v1 serves all of them through
one typed subscription surface::

    sub = api.signals.on(CarbonChange, callback)
    api.signals.on(SolarChange, callback, threshold=2.0)   # |delta| >= 2 W
    api.signals.on(PriceChange, callback, debounce_s=600)  # >= 10 min apart
    sub.cancel()

Signal types *are* the event dataclasses (re-exported here under their
v1 names, e.g. ``CarbonChange is CarbonChangeEvent``), so existing
subscribers keep working and the bus stays a single dispatch substrate.
The bus adds, per subscription:

- **application scoping** — signals carrying an ``app_name`` field
  (solar and battery signals) are delivered only for the owning app;
- **threshold** — change signals are dropped while the absolute change
  is below the threshold (in the signal's native delta unit);
- **debounce** — deliveries are separated by at least ``debounce_s`` of
  simulation time.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Type

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
)

# v1 signal names; each *is* the corresponding event type.
Tick = TickEvent
SolarChange = SolarChangeEvent
CarbonChange = CarbonChangeEvent
PriceChange = PriceChangeEvent
BatteryFull = BatteryFullEvent
BatteryEmpty = BatteryEmptyEvent
# v1.1 lifecycle signals (control plane: dynamic tenancy).
AppAdmitted = AppAdmittedEvent
AppEvicted = AppEvictedEvent
ShareChanged = ShareChangedEvent

#: Signals that support ``threshold=`` and the attribute holding their
#: change magnitude.
_DELTA_FIELDS: Dict[Type[Event], str] = {
    SolarChangeEvent: "delta_w",
    CarbonChangeEvent: "delta_g_per_kwh",
    PriceChangeEvent: "delta_usd_per_kwh",
}


class Subscription:
    """Handle for one active signal subscription; ``cancel()`` detaches it."""

    def __init__(
        self,
        bus: EventBus,
        signal_type: Type[Event],
        dispatcher: Callable[[Event], None],
        owner: Optional["SignalBus"] = None,
    ):
        self._bus = bus
        self._signal_type = signal_type
        self._dispatcher = dispatcher
        self._owner = owner
        self._active = True

    @property
    def signal_type(self) -> Type[Event]:
        return self._signal_type

    @property
    def active(self) -> bool:
        return self._active

    def cancel(self) -> None:
        """Stop delivering this subscription's signal; idempotent.

        Also releases the subscription (and its dispatcher closure)
        from the owning :class:`SignalBus`, so churn-heavy subscribe/
        cancel patterns do not accumulate dead entries.
        """
        if self._active:
            self._bus.unsubscribe(self._signal_type, self._dispatcher)
            self._active = False
            if self._owner is not None:
                self._owner._release(self)


class SignalBus:
    """One application's typed view onto the ecovisor event bus."""

    def __init__(self, bus: EventBus, app_name: str):
        self._bus = bus
        self._app_name = app_name
        self._subscriptions: List[Subscription] = []

    @property
    def app_name(self) -> str:
        return self._app_name

    @property
    def subscriptions(self) -> List[Subscription]:
        """Active subscriptions made through this bus."""
        return [s for s in self._subscriptions if s.active]

    def on(
        self,
        signal_type: Type[Event],
        callback: Callable[[Event], None],
        *,
        threshold: Optional[float] = None,
        debounce_s: Optional[float] = None,
    ) -> Subscription:
        """Subscribe ``callback`` to ``signal_type`` for this application.

        ``threshold`` filters change signals whose absolute delta is
        below it; ``debounce_s`` enforces a minimum simulation-time gap
        between deliveries.  Returns a cancellable :class:`Subscription`.
        """
        if not isinstance(signal_type, type) or not issubclass(signal_type, Event):
            raise TypeError(f"not a signal type: {signal_type!r}")
        delta_field = _DELTA_FIELDS.get(signal_type)
        if threshold is not None:
            if delta_field is None:
                raise ValueError(
                    f"{signal_type.__name__} does not support threshold filtering"
                )
            if threshold < 0:
                raise ValueError(f"threshold must be >= 0, got {threshold}")
        if debounce_s is not None and debounce_s < 0:
            raise ValueError(f"debounce_s must be >= 0, got {debounce_s}")

        app_name = self._app_name
        last_delivery_s: List[float] = []  # empty until first delivery

        def dispatcher(event: Event) -> None:
            event_app = getattr(event, "app_name", None)
            if event_app is not None and event_app != app_name:
                return
            if threshold is not None:
                if abs(getattr(event, delta_field)) < threshold:
                    return
            if debounce_s is not None and last_delivery_s:
                if event.time_s - last_delivery_s[0] < debounce_s:
                    return
            if debounce_s is not None:
                if last_delivery_s:
                    last_delivery_s[0] = event.time_s
                else:
                    last_delivery_s.append(event.time_s)
            callback(event)

        self._bus.subscribe(signal_type, dispatcher)
        subscription = Subscription(self._bus, signal_type, dispatcher, owner=self)
        self._subscriptions.append(subscription)
        return subscription

    def _release(self, subscription: Subscription) -> None:
        if subscription in self._subscriptions:
            self._subscriptions.remove(subscription)

    def off(self, subscription: Subscription) -> None:
        """Cancel a subscription previously returned by :meth:`on`."""
        subscription.cancel()

    def cancel_all(self) -> None:
        """Cancel every active subscription made through this bus."""
        for subscription in list(self._subscriptions):
            subscription.cancel()
        self._subscriptions.clear()


__all__ = [
    "AppAdmitted",
    "AppEvicted",
    "BatteryEmpty",
    "BatteryFull",
    "CarbonChange",
    "PriceChange",
    "ShareChanged",
    "SignalBus",
    "SolarChange",
    "Subscription",
    "Tick",
]
