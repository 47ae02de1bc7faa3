"""Bounded per-application event journals (control plane v1.1)."""

import dataclasses
import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import UnknownApplicationError
from repro.core.events import (
    EVENT_TYPES,
    AppEvictedEvent,
    CarbonChangeEvent,
    SolarChangeEvent,
    event_from_dict,
    event_from_record,
    event_record,
    event_to_dict,
    solar_change_record,
)
from repro.core.journal import EventJournal


def carbon_event(i: int) -> CarbonChangeEvent:
    return CarbonChangeEvent(
        time_s=60.0 * i, previous_g_per_kwh=100.0, current_g_per_kwh=100.0 + i
    )


class TestEventJournal:
    def test_record_and_read(self):
        journal = EventJournal()
        events = [carbon_event(i) for i in range(3)]
        for event in events:
            journal.record("a", event)
        page = journal.read("a", cursor=0)
        assert list(page.events) == events
        assert page.next_cursor == 3
        assert page.dropped == 0

    def test_cursor_resumes_where_it_left_off(self):
        journal = EventJournal()
        journal.record("a", carbon_event(0))
        first = journal.read("a")
        journal.record("a", carbon_event(1))
        journal.record("a", carbon_event(2))
        second = journal.read("a", cursor=first.next_cursor)
        assert [e.time_s for e in second.events] == [60.0, 120.0]
        assert second.next_cursor == 3

    def test_read_at_head_is_empty_and_idempotent(self):
        journal = EventJournal()
        journal.record("a", carbon_event(0))
        page = journal.read("a", cursor=1)
        assert page.events == ()
        assert page.next_cursor == 1
        assert journal.read("a", cursor=1).next_cursor == 1

    def test_bounded_journal_reports_dropped(self):
        journal = EventJournal(capacity=3)
        for i in range(10):
            journal.record("a", carbon_event(i))
        page = journal.read("a", cursor=0)
        # Only the newest 3 survive; 7 fell out before cursor 0 saw them.
        assert [e.time_s for e in page.events] == [420.0, 480.0, 540.0]
        assert page.dropped == 7
        assert page.next_cursor == 10

    def test_overflow_counted_per_feed_and_journal_wide(self):
        journal = EventJournal(capacity=3)
        for i in range(10):
            journal.record("a", carbon_event(i))
        for i in range(4):
            journal.record("b", carbon_event(i))
        assert journal.overflow_dropped_for("a") == 7
        assert journal.overflow_dropped_for("b") == 1
        assert journal.overflow_dropped_total == 8

    def test_overflow_rides_along_on_pages(self):
        journal = EventJournal(capacity=3)
        for i in range(5):
            journal.record("a", carbon_event(i))
        page = journal.read("a", cursor=0)
        # journal_dropped is the feed's lifetime overflow; dropped is
        # relative to this caller's cursor.  Here they coincide.
        assert page.journal_dropped == 2
        assert page.dropped == 2
        # A caught-up reader still sees the lifetime figure.
        assert journal.read("a", cursor=page.next_cursor).journal_dropped == 2

    def test_no_overflow_before_capacity(self):
        journal = EventJournal(capacity=3)
        for i in range(3):
            journal.record("a", carbon_event(i))
        assert journal.overflow_dropped_total == 0
        assert journal.read("a").journal_dropped == 0

    def test_overflow_for_unknown_app_raises(self):
        with pytest.raises(UnknownApplicationError):
            EventJournal().overflow_dropped_for("ghost")

    def test_limit_zero_probes_without_advancing(self):
        journal = EventJournal(capacity=3)
        for i in range(5):
            journal.record("a", carbon_event(i))
        # A dropped-count probe: no events consumed, and the returned
        # cursor must resume at the first undelivered event (past the
        # dropped gap), not at the feed's end.
        page = journal.read("a", cursor=0, limit=0)
        assert page.events == ()
        assert page.dropped == 2
        assert page.next_cursor == 2
        resumed = journal.read("a", cursor=page.next_cursor)
        assert [e.time_s for e in resumed.events] == [120.0, 180.0, 240.0]

    def test_limit_pages_without_losing_position(self):
        journal = EventJournal()
        for i in range(5):
            journal.record("a", carbon_event(i))
        first = journal.read("a", cursor=0, limit=2)
        assert len(first.events) == 2
        assert first.next_cursor == 2
        rest = journal.read("a", cursor=first.next_cursor)
        assert [e.time_s for e in rest.events] == [120.0, 180.0, 240.0]

    def test_feeds_are_per_app(self):
        journal = EventJournal()
        journal.record("a", carbon_event(0))
        journal.record("b", carbon_event(1))
        assert len(journal.read("a").events) == 1
        assert len(journal.read("b").events) == 1

    def test_unknown_app_raises(self):
        with pytest.raises(UnknownApplicationError):
            EventJournal().read("ghost")

    def test_ensure_feed_creates_empty_feed(self):
        journal = EventJournal()
        journal.ensure_feed("a")
        assert journal.has_feed("a")
        assert journal.read("a").events == ()

    def test_negative_cursor_rejected(self):
        journal = EventJournal()
        journal.ensure_feed("a")
        with pytest.raises(ValueError):
            journal.read("a", cursor=-1)

    def test_negative_limit_rejected(self):
        journal = EventJournal()
        journal.ensure_feed("a")
        with pytest.raises(ValueError):
            journal.read("a", limit=-1)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            EventJournal(capacity=0)

    def test_retired_feeds_bounded(self):
        journal = EventJournal(max_retired_feeds=2)
        for i in range(4):
            journal.record(f"t{i}", carbon_event(i))
            journal.retire_feed(f"t{i}")
        # Only the two most recently retired feeds survive.
        assert not journal.has_feed("t0")
        assert not journal.has_feed("t1")
        assert journal.has_feed("t2")
        assert journal.has_feed("t3")
        with pytest.raises(UnknownApplicationError):
            journal.read("t0")

    def test_readmission_unretires_the_feed(self):
        journal = EventJournal(max_retired_feeds=1)
        journal.record("a", carbon_event(0))
        journal.retire_feed("a")
        journal.ensure_feed("a")  # re-admitted: back in service
        journal.retire_feed("b")  # unrelated retirement churn
        journal.record("b", carbon_event(1))
        journal.retire_feed("b")
        assert journal.has_feed("a")  # not dropped by b's retirement
        assert len(journal.read("a").events) == 1

    def test_retire_is_idempotent(self):
        journal = EventJournal(max_retired_feeds=2)
        journal.record("a", carbon_event(0))
        journal.retire_feed("a")
        journal.retire_feed("a")
        journal.retire_feed("b")  # no feed: no-op
        assert journal.has_feed("a")


class TestEventWireFormat:
    def test_round_trip_is_lossless(self):
        original = SolarChangeEvent(
            time_s=120.0, app_name="a", previous_w=1.0, current_w=3.5
        )
        payload = event_to_dict(original)
        assert payload["type"] == "SolarChangeEvent"
        assert event_from_dict(payload) == original

    def test_round_trip_every_registered_type(self):
        from repro.core.events import EVENT_TYPES

        for cls in EVENT_TYPES.values():
            event = cls(time_s=1.0)
            assert event_from_dict(event_to_dict(event)) == event

    def test_eviction_event_carries_final_figures(self):
        event = AppEvictedEvent(
            time_s=60.0, app_name="a", energy_wh=1.5, carbon_g=0.2, cost_usd=0.01
        )
        rebuilt = event_from_dict(event_to_dict(event))
        assert rebuilt.energy_wh == 1.5
        assert rebuilt.containers_stopped == 0

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            event_from_dict({"type": "NopeEvent", "time_s": 0.0})


# ----------------------------------------------------------------------
# Oracle: the journal against a plain-list model
# ----------------------------------------------------------------------
#: Feed names the oracle draws from; "ghost" is never recorded into
#: unless drawn, so some reads hit a missing feed.
NAMES = ("a", "b", "c", "ghost")

_FIELD_VALUES = {
    "float": st.floats(allow_nan=False, width=64),
    "int": st.integers(min_value=-(2**40), max_value=2**40),
    "str": st.text(max_size=6),
}


def _event_strategy(cls):
    return st.builds(
        cls,
        **{f.name: _FIELD_VALUES[f.type] for f in dataclasses.fields(cls)},
    )


EVENTS = st.one_of([_event_strategy(cls) for cls in EVENT_TYPES.values()])

JOURNAL_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("record"), st.sampled_from(NAMES), EVENTS),
        st.tuples(
            st.just("broadcast"),
            st.lists(st.sampled_from(NAMES), unique=True),
            EVENTS,
        ),
        st.tuples(st.just("ensure"), st.sampled_from(NAMES)),
        st.tuples(st.just("retire"), st.sampled_from(NAMES)),
        st.tuples(
            st.just("read"),
            st.sampled_from(NAMES),
            st.integers(min_value=0, max_value=24),
            st.none() | st.integers(min_value=0, max_value=5),
        ),
    ),
    max_size=60,
)


class _ListJournal:
    """The journal's contract over plain lists of (seq, event)."""

    def __init__(self, capacity, max_retired):
        self.capacity = capacity
        self.max_retired = max_retired
        self.feeds = {}
        self.retired = []
        self.overflow_total = 0

    def record(self, name, event):
        feed = self.feeds.setdefault(name, {"entries": [], "next": 0, "overflow": 0})
        if len(feed["entries"]) == self.capacity:
            del feed["entries"][0]
            feed["overflow"] += 1
            self.overflow_total += 1
        feed["entries"].append((feed["next"], event))
        feed["next"] += 1

    def ensure(self, name):
        if name not in self.feeds:
            self.feeds[name] = {"entries": [], "next": 0, "overflow": 0}
        elif name in self.retired:
            self.retired.remove(name)

    def retire(self, name):
        if name not in self.feeds or name in self.retired:
            return
        self.retired.append(name)
        while len(self.retired) > self.max_retired:
            self.feeds.pop(self.retired.pop(0), None)

    def read(self, name, cursor, limit):
        feed = self.feeds.get(name)
        if feed is None:
            return None
        entries = feed["entries"]
        oldest = entries[0][0] if entries else feed["next"]
        # Sequences the cursor never reached before they fell out.
        dropped = len(range(cursor, min(oldest, feed["next"])))
        waiting = [(seq, event) for seq, event in entries if seq >= cursor]
        delivered = waiting if limit is None else waiting[:limit]
        if delivered:
            next_cursor = delivered[-1][0] + 1
        elif waiting:
            next_cursor = max(cursor, oldest)
        else:
            next_cursor = max(cursor, feed["next"])
        events = tuple(event for _, event in delivered)
        return events, next_cursor, dropped, feed["overflow"]


class TestJournalOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=6),
        max_retired=st.integers(min_value=0, max_value=3),
        ops=JOURNAL_OPS,
    )
    def test_matches_list_model(self, capacity, max_retired, ops):
        journal = EventJournal(capacity=capacity, max_retired_feeds=max_retired)
        model = _ListJournal(capacity, max_retired)
        for op in ops:
            kind = op[0]
            if kind == "record":
                journal.record(op[1], op[2])
                model.record(op[1], op[2])
            elif kind == "broadcast":
                # One event into several feeds, as Ecovisor._publish
                # journals a carbon or price change.
                for name in op[1]:
                    journal.record(name, op[2])
                    model.record(name, op[2])
            elif kind == "ensure":
                journal.ensure_feed(op[1])
                model.ensure(op[1])
            elif kind == "retire":
                journal.retire_feed(op[1])
                model.retire(op[1])
            else:
                _, name, cursor, limit = op
                expected = model.read(name, cursor, limit)
                assert journal.has_feed(name) is (expected is not None)
                if expected is None:
                    with pytest.raises(UnknownApplicationError):
                        journal.read(name, cursor=cursor, limit=limit)
                    continue
                page = journal.read(name, cursor=cursor, limit=limit)
                events, next_cursor, dropped, journal_dropped = expected
                assert page.events == events
                assert [type(e) for e in page.events] == [type(e) for e in events]
                assert page.next_cursor == next_cursor
                assert page.dropped == dropped
                assert page.journal_dropped == journal_dropped
            assert journal.overflow_dropped_total == model.overflow_total


class TestFlatRecords:
    """Entries are bare :func:`event_record` tuples whose sequence
    numbers come from their position in the feed; events are built on
    read."""

    def test_feeds_share_a_broadcast_record(self):
        journal = EventJournal()
        event = carbon_event(3)
        record = event_record(event)
        for name in "abc":
            journal.append(name, record)
        records = [journal._feeds[name].entries[0] for name in "abc"]
        assert records[0] is records[1] is records[2]
        for name in "abc":
            (read,) = journal.read(name).events
            assert read == event and read is not event

    def test_read_builds_only_the_returned_events(self, monkeypatch):
        import repro.core.journal as journal_module

        journal = EventJournal()
        for i in range(10):
            journal.record("a", carbon_event(i))
        built = []

        def counting(record):
            built.append(record)
            return event_from_record(record)

        monkeypatch.setattr(journal_module, "event_from_record", counting)
        page = journal.read("a", cursor=4, limit=2)
        assert [e.time_s for e in page.events] == [240.0, 300.0]
        assert len(built) == 2

    def test_every_type_round_trips_through_a_record(self):
        for cls in EVENT_TYPES.values():
            event = cls(time_s=1.5)
            record = event_record(event)
            assert record[0] == cls.__name__
            assert event_from_record(record) == event

    def test_solar_change_record_is_the_events_record(self):
        event = SolarChangeEvent(
            time_s=60.0, app_name="a", previous_w=1.5, current_w=4.0
        )
        assert solar_change_record(60.0, "a", 1.5, 4.0) == event_record(event)

    def test_entries_stop_being_tracked(self):
        journal = EventJournal()
        journal.record("a", carbon_event(0))
        record = event_record(carbon_event(1))
        journal.append("a", record)
        journal.append("b", record)
        gc.collect()
        for name in "ab":
            for entry in journal._feeds[name].entries:
                assert not gc.is_tracked(entry)
