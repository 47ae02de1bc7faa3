"""Bounded per-application event journals (control plane v1.1).

The in-process :class:`~repro.core.signals.SignalBus` delivers signals
synchronously to callbacks living in the same process.  External
controllers — the audience of the REST control plane — cannot hold a
callback across a network boundary, so the ecovisor additionally
*journals* every published signal per application, and the REST surface
exposes the journal as a cursor-paged feed::

    GET /v1/apps/{app}/events?cursor=N
      -> {"events": [...], "next_cursor": M, "dropped": K}

A client polls with its last ``next_cursor`` and receives exactly the
signals the in-process bus delivered for that application (application-
scoped signals plus the broadcast carbon/price changes), in publish
order.  :class:`TickEvent` is deliberately *not* journaled — one entry
per app per tick would dominate the bound at fleet scale and carries no
information the feed's consumers cannot get from ``GET .../state``.

Entries are flat: each is the record
:func:`~repro.core.events.event_record` makes, a tuple of the type name
and the field values (strings and numbers).  Sequences are
contiguous, so a feed stores no per-entry sequence number: an entry's is
the feed's oldest plus its position.  A broadcast shares one record
across every feed, and the columnar begin phase journals its solar
changes as :func:`~repro.core.events.solar_change_record` records
without building events that no subscriber would receive.  Such tuples
hold nothing the garbage collector must walk, and CPython stops tracking
them the first time a collection sees them, so a
1000-tenant journal adds next to nothing to full-collection pauses.
:meth:`EventJournal.read` builds events only for the entries it
returns, after ``limit``: equal to, not the same objects as, those the
bus delivered.

Measured in-process after one steady_1k day (1000 tenants, seed 2023,
2-vCPU VM), against a journal of ``(seq, Event)`` entries with every
solar change built as an event: publishing a tick's ~129 signals costs
0.22 ms instead of 0.56–0.62 ms, the collector tracks 47k objects
instead of 344k, and a full collection takes 26–38 ms instead of
203–255 ms.  Reads pay for it: after a 200-tenant day, reading a whole
feed (~233 entries) costs 181–189 µs instead of 10–11 µs, while a
two-entry cursor poll costs 4.5–4.9 µs instead of 6.5–7.5 µs, because
the read indexes the cursor's entry instead of scanning the feed.  Broadcasts
still append to every live feed, O(apps) per carbon or price change; a
merge-at-read broadcast lane would trade that for cursor bookkeeping on
every read.

Each feed is a bounded deque (default 256 entries): old entries are
dropped, never resized, so a slow consumer sees ``dropped > 0`` and
knows its cursor lagged past the retention window rather than silently
missing events.  Feeds persist after eviction so a controller can tail
an application's terminal ``AppEvictedEvent`` — but only the most
recent ``max_retired_feeds`` evicted tenants' feeds are retained
(default 1024), so aggregate memory stays bounded under perpetual
churn instead of growing with every tenant ever admitted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Tuple

from repro.core.errors import UnknownApplicationError
from repro.core.events import Event, event_from_record, event_record

DEFAULT_JOURNAL_CAPACITY = 256
DEFAULT_MAX_RETIRED_FEEDS = 1024


@dataclass(frozen=True)
class JournalPage:
    """One cursor-paged read of an application's event feed.

    ``events`` are the journaled events with sequence >= the requested
    cursor; ``next_cursor`` is the cursor to pass on the next poll
    (idempotent when no new events arrive); ``dropped`` counts events
    that fell out of the bounded journal before the cursor reached them.
    """

    app_name: str
    events: Tuple[Event, ...]
    next_cursor: int
    dropped: int
    #: Events this feed has evicted past its bound since creation —
    #: the feed-lifetime overflow figure (``journal_dropped_total`` in
    #: the metrics registry), as opposed to ``dropped``, which is the
    #: *caller's* cursor lag on this particular read.
    journal_dropped: int = 0


class _Feed:
    """One application's bounded journal of flat event records.

    ``entries[k]`` has sequence ``next_seq - len(entries) + k``.
    """

    __slots__ = ("entries", "next_seq", "overflow_dropped")

    def __init__(self, capacity: int):
        self.entries: Deque[tuple] = deque(maxlen=capacity)
        self.next_seq = 0
        # Events evicted from the full deque, counted at append time.
        self.overflow_dropped = 0


class EventJournal:
    """Per-application bounded event feeds with cursor-paged reads."""

    def __init__(
        self,
        capacity: int = DEFAULT_JOURNAL_CAPACITY,
        max_retired_feeds: int = DEFAULT_MAX_RETIRED_FEEDS,
    ):
        if capacity <= 0:
            raise ValueError(f"journal capacity must be positive, got {capacity}")
        if max_retired_feeds < 0:
            raise ValueError(
                f"max_retired_feeds must be >= 0, got {max_retired_feeds}"
            )
        self._capacity = capacity
        self._max_retired = max_retired_feeds
        self._feeds: Dict[str, _Feed] = {}
        # Names of evicted tenants whose feeds are retained, oldest
        # retirement first; beyond the cap the oldest feed is dropped.
        self._retired: Deque[str] = deque()
        # Journal-lifetime overflow total across all feeds, surviving
        # retired-feed cleanup (per-feed figures die with their feed).
        self._overflow_total = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def overflow_dropped_total(self) -> int:
        """Events evicted past any feed's bound, journal-lifetime."""
        return self._overflow_total

    def overflow_dropped_for(self, app_name: str) -> int:
        """Events ``app_name``'s feed has evicted since it was created."""
        feed = self._feeds.get(app_name)
        if feed is None:
            raise UnknownApplicationError(app_name)
        return feed.overflow_dropped

    def ensure_feed(self, app_name: str) -> None:
        """Create an empty feed for a newly admitted application.

        Re-admission of a retired name resumes its existing feed (and
        takes it back out of the retirement window).
        """
        if app_name not in self._feeds:
            self._feeds[app_name] = _Feed(self._capacity)
        elif app_name in self._retired:
            self._retired.remove(app_name)

    def has_feed(self, app_name: str) -> bool:
        return app_name in self._feeds

    def retire_feed(self, app_name: str) -> None:
        """Mark an evicted tenant's feed retained-but-retired.

        The feed stays readable (the terminal ``AppEvictedEvent`` is
        its last entry); once more than ``max_retired_feeds`` tenants
        have been evicted, the longest-retired feed is dropped
        entirely, bounding aggregate memory under perpetual churn.
        """
        if app_name not in self._feeds or app_name in self._retired:
            return
        self._retired.append(app_name)
        while len(self._retired) > self._max_retired:
            self._feeds.pop(self._retired.popleft(), None)

    def record(self, app_name: str, event: Event) -> None:
        """Append one event to an application's feed (created on demand).

        An append into a full feed evicts the feed's oldest entry; the
        eviction is counted (per feed and journal-wide) instead of
        happening silently, so slow consumers and the metrics surface
        can see retention-window losses.
        """
        self.append(app_name, event_record(event))

    def append(self, app_name: str, record: tuple) -> None:
        """:meth:`record` for an event already flattened by
        :func:`~repro.core.events.event_record`; the feeds of a
        broadcast all append the same record."""
        feed = self._feeds.get(app_name)
        if feed is None:
            feed = self._feeds[app_name] = _Feed(self._capacity)
        if len(feed.entries) == self._capacity:
            feed.overflow_dropped += 1
            self._overflow_total += 1
        feed.entries.append(record)
        feed.next_seq += 1

    def read(
        self, app_name: str, cursor: int = 0, limit: Optional[int] = None
    ) -> JournalPage:
        """Events with sequence >= ``cursor``, oldest first.

        Raises :class:`UnknownApplicationError` for applications that
        were never admitted (evicted applications keep their feed).
        """
        feed = self._feeds.get(app_name)
        if feed is None:
            raise UnknownApplicationError(app_name)
        if cursor < 0:
            raise ValueError(f"cursor must be >= 0, got {cursor}")
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        entries = feed.entries
        next_seq = feed.next_seq
        oldest = next_seq - len(entries)
        dropped = max(0, oldest - cursor)
        start = max(cursor, oldest) - oldest
        waiting = len(entries) - start
        if waiting > 0:
            count = waiting if limit is None else min(limit, waiting)
            # Deque indexing walks 64-entry blocks from the nearer end:
            # a few hops at the default capacity, so a poll of the
            # newest entries never walks the feed.
            events = tuple(
                [event_from_record(entries[k]) for k in range(start, start + count)]
            )
            # Resume right after what was delivered (past the dropped
            # gap) — correct even when `limit` truncated to nothing.
            next_cursor = cursor + dropped + count
        else:
            events = ()
            next_cursor = max(cursor, next_seq)
        return JournalPage(
            app_name=app_name,
            events=events,
            next_cursor=next_cursor,
            dropped=dropped,
            journal_dropped=feed.overflow_dropped,
        )
