"""Per-tick shared snapshot cache for ``GET /v1/apps/{app}/state``.

A thousand concurrent pollers of the same app should cost one dispatch
and one serialization per tick, not a thousand.  The cache stores, per
app, the fully *rendered* response bytes (200-with-body and 304) plus
the sync layer's own strong ETag, so repeat polls — and especially
``If-None-Match`` revalidations — are served straight from the event
loop without ever touching the writer thread.

Coherence comes from two drops, both called on the event loop once the
change they follow has run on the writer:

- :meth:`invalidate` drops every entry.  The tick driver calls it after
  every completed tick step, and the gateway after every admin write or
  other non-GET outside ``/v1/apps/{app}/``.
- :meth:`invalidate_app` drops one tenant's entry.  The gateway calls it
  after a non-GET to ``/v1/apps/{app}/…``: every such write is
  ownership-checked to its own tenant, so it cannot change what another
  tenant's state route answers.

A miss populates the cache through a single-flight future, so N
simultaneous cold pollers still cost one dispatch.  A drop also
discards the builds of what it drops that are still in flight: their
result reaches the callers already waiting on them but is not stored,
and the next reader starts a fresh build.

The cache keeps plain integer counts of hits, populates and both kinds
of drop; the gateway exports them as collect-time counters.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, Optional


@dataclass(frozen=True)
class CacheEntry:
    """One app's cached snapshot: its ETag and both rendered responses."""

    etag: str
    fresh_response: bytes
    not_modified_response: bytes


class SnapshotCache:
    """App-keyed response cache with single-flight population.

    All methods run on the event loop; the cache holds no locks and
    never touches the simulation.  Entries are keyed on the raw
    ``{app}`` path segment (the router does not percent-decode either).
    """

    def __init__(self):
        self._entries: Dict[str, CacheEntry] = {}
        self._inflight: Dict[str, "asyncio.Future[Optional[CacheEntry]]"] = {}
        #: Lifetime counters, exposed through the gateway's metrics:
        #: requests served from an entry, builds run, full drops, and
        #: single-tenant drops.
        self.hits = 0
        self.populates = 0
        self.invalidations = 0
        self.tenant_invalidations = 0

    def get(self, app_name: str) -> Optional[CacheEntry]:
        """The cached entry for ``app_name`` (a pure lookup: the caller
        that serves the entry counts the hit)."""
        return self._entries.get(app_name)

    async def populate(
        self,
        app_name: str,
        build: Callable[[], Awaitable[Optional[CacheEntry]]],
    ) -> Optional[CacheEntry]:
        """The entry for ``app_name``, building it at most once at a time.

        ``build`` dispatches through the writer thread and returns the
        new entry, or ``None`` for responses that must not be cached
        (errors); concurrent callers await the same in-flight build.
        The built entry is only stored if neither :meth:`invalidate` nor
        this app's :meth:`invalidate_app` landed while the build was in
        flight, so a response computed against tick N can never be
        stored after tick N+1 completes, nor one computed before a write
        after that write.
        """
        entry = self._entries.get(app_name)
        if entry is not None:
            return entry
        inflight = self._inflight.get(app_name)
        if inflight is not None:
            return await asyncio.shield(inflight)
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Optional[CacheEntry]]" = loop.create_future()
        self._inflight[app_name] = future
        self.populates += 1
        try:
            entry = await build()
        except BaseException as exc:
            future.set_exception(exc)
            # A waiter may have been cancelled away before retrieving
            # the exception; don't let that surface as "never retrieved".
            future.exception()
            raise
        finally:
            # A drop unregisters the in-flight future, so still finding
            # it here means no drop of this app landed during the build.
            current = self._inflight.get(app_name) is future
            if current:
                del self._inflight[app_name]
        future.set_result(entry)
        if entry is not None and current:
            self._entries[app_name] = entry
        return entry

    def invalidate(self) -> None:
        """Drop every entry (a tick completed or shared state changed)."""
        self.invalidations += 1
        self._entries.clear()
        self._inflight.clear()

    def invalidate_app(self, app_name: str) -> None:
        """Drop one tenant's entry (a write scoped to that tenant ran)."""
        self.tenant_invalidations += 1
        self._entries.pop(app_name, None)
        self._inflight.pop(app_name, None)
