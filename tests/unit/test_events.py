"""Event bus dispatch semantics."""

import pytest

from repro.core.events import (
    BatteryEmptyEvent,
    BatteryFullEvent,
    CarbonChangeEvent,
    EventBus,
    SolarChangeEvent,
    TickEvent,
)


class TestSubscribePublish:
    def test_subscriber_receives_event(self):
        bus = EventBus()
        got = []
        bus.subscribe(TickEvent, got.append)
        bus.publish(TickEvent(time_s=0.0, tick_index=3))
        assert len(got) == 1
        assert got[0].tick_index == 3

    def test_publish_returns_delivery_count(self):
        bus = EventBus()
        bus.subscribe(TickEvent, lambda e: None)
        bus.subscribe(TickEvent, lambda e: None)
        assert bus.publish(TickEvent(time_s=0.0)) == 2

    def test_no_subscribers_is_fine(self):
        bus = EventBus()
        assert bus.publish(TickEvent(time_s=0.0)) == 0

    def test_type_filtering(self):
        bus = EventBus()
        ticks, solar = [], []
        bus.subscribe(TickEvent, ticks.append)
        bus.subscribe(SolarChangeEvent, solar.append)
        bus.publish(TickEvent(time_s=0.0))
        bus.publish(SolarChangeEvent(time_s=0.0, app_name="a"))
        assert len(ticks) == 1
        assert len(solar) == 1

    def test_exact_type_match_only(self):
        """Subclasses are distinct event types; no structural dispatch."""
        bus = EventBus()
        got = []
        bus.subscribe(BatteryFullEvent, got.append)
        bus.publish(BatteryEmptyEvent(time_s=0.0, app_name="a"))
        assert got == []

    def test_unsubscribe(self):
        bus = EventBus()
        got = []
        bus.subscribe(TickEvent, got.append)
        bus.unsubscribe(TickEvent, got.append)
        bus.publish(TickEvent(time_s=0.0))
        assert got == []

    def test_unsubscribe_absent_callback_is_noop(self):
        bus = EventBus()
        bus.unsubscribe(TickEvent, lambda e: None)  # must not raise

    def test_published_counts(self):
        bus = EventBus()
        bus.publish(TickEvent(time_s=0.0))
        bus.publish(TickEvent(time_s=60.0))
        assert bus.published_count(TickEvent) == 2
        assert bus.published_count(SolarChangeEvent) == 0

    def test_unheard_publishes_count_like_published_ones(self):
        bus = EventBus()
        bus.count_unheard(SolarChangeEvent, 3)
        bus.publish(SolarChangeEvent(time_s=0.0, app_name="a"))
        assert bus.published_count(SolarChangeEvent) == 4
        bus.subscribe(SolarChangeEvent, lambda e: None)
        with pytest.raises(RuntimeError):
            bus.count_unheard(SolarChangeEvent, 1)

    def test_subscriber_count(self):
        bus = EventBus()
        assert bus.subscriber_count(TickEvent) == 0
        bus.subscribe(TickEvent, lambda e: None)
        assert bus.subscriber_count(TickEvent) == 1

    def test_subscriber_exception_propagates(self):
        bus = EventBus()

        def bad(_):
            raise RuntimeError("policy bug")

        bus.subscribe(TickEvent, bad)
        with pytest.raises(RuntimeError):
            bus.publish(TickEvent(time_s=0.0))


class TestEventPayloads:
    def test_solar_change_delta(self):
        event = SolarChangeEvent(
            time_s=0.0, app_name="a", previous_w=5.0, current_w=8.0
        )
        assert event.delta_w == pytest.approx(3.0)

    def test_carbon_change_delta(self):
        event = CarbonChangeEvent(
            time_s=0.0, previous_g_per_kwh=200.0, current_g_per_kwh=150.0
        )
        assert event.delta_g_per_kwh == pytest.approx(-50.0)

    def test_events_are_frozen(self):
        event = TickEvent(time_s=0.0)
        with pytest.raises(AttributeError):
            event.time_s = 99.0
