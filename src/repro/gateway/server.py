"""The asyncio gateway server: network front-end over the sync router.

Request flow:

- ``GET /v1/apps/{app}/state`` — served from the :class:`SnapshotCache`
  on the event loop.  An ``If-None-Match`` hit costs zero dispatches and
  zero serializations; a cold miss populates the cache through one
  single-flight dispatch on the writer thread.
- ``GET /v1/apps/{app}/events/stream`` — upgraded to a Server-Sent
  Events stream fed by the :class:`~repro.gateway.sse.StreamBroker`.
- everything else — dispatched verbatim through
  :meth:`EcovisorRestServer.request` on the single writer thread, so
  handler execution interleaves with tick steps in a deterministic
  serial order.

Mutating dispatches (any non-GET) invalidate the snapshot cache: a
write to ``/v1/apps/{app}/...`` drops only that tenant's entry, and
any other (admin writes included) drops every entry.  Every
writer-thread task ends with a broker pump, so SSE subscribers see
admin-driven events (eviction, share changes) without waiting for the
next tick.
"""

from __future__ import annotations

import asyncio
import functools
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, TypeVar

from repro.core.ecovisor import Ecovisor
from repro.core.errors import UnknownApplicationError
from repro.gateway.cache import CacheEntry, SnapshotCache
from repro.gateway.http import (
    BadRequest,
    HttpRequest,
    json_response,
    read_request,
    render_response,
    split_target,
)
from repro.gateway.sse import (
    DEFAULT_QUEUE_SIZE,
    HEARTBEAT_FRAME,
    StreamBroker,
    Subscriber,
    format_sse_event,
)
from repro.rest.router import Response
from repro.rest.server import (
    SNAPSHOT_CACHE_CONTROL,
    EcovisorRestServer,
    etag_matches,
)

T = TypeVar("T")

_APPS_PREFIX = "/v1/apps/"

#: Response headers of an SSE stream (no Content-Length: the stream
#: ends with the connection).
_SSE_HEAD = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: text/event-stream\r\n"
    b"Cache-Control: no-store\r\n"
    b"Connection: close\r\n\r\n"
)


def _route_tenant(path: str) -> Tuple[Optional[str], str]:
    """``(app, rest)`` if ``path`` is ``/v1/apps/{app}/{rest}``.

    ``app`` is the raw segment, as the router matches it (neither
    percent-decodes); any other path gives ``(None, "")``.
    """
    if path.startswith(_APPS_PREFIX):
        app, slash, rest = path[len(_APPS_PREFIX) :].partition("/")
        if app and slash:
            return app, rest
    return None, ""


@dataclass(frozen=True)
class GatewayConfig:
    """Tunables for one gateway instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral, read the bound port back from `.port`
    heartbeat_seconds: float = 15.0
    queue_size: int = DEFAULT_QUEUE_SIZE


class GatewayServer:
    """Asyncio HTTP front-end bound to one ecovisor.

    Owns the single-writer executor; every sim-touching callable in the
    process (handler dispatch *and* tick stepping, via
    :class:`~repro.gateway.driver.TickDriver`) must go through
    :meth:`run_on_writer` so the simulation only ever sees one thread.
    """

    def __init__(
        self,
        ecovisor: Ecovisor,
        rest: Optional[EcovisorRestServer] = None,
        config: Optional[GatewayConfig] = None,
    ):
        self._ecovisor = ecovisor
        self._rest = rest if rest is not None else EcovisorRestServer(ecovisor)
        self._config = config or GatewayConfig()
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="gateway-writer"
        )
        self._cache = SnapshotCache()
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._connections: "set[asyncio.Task[None]]" = set()

        metrics = ecovisor.metrics
        self._open_connections = metrics.gauge(
            "gateway_open_connections",
            "TCP connections the gateway currently holds open.",
        )
        self._sse_streams_open = metrics.gauge(
            "gateway_sse_streams_open",
            "SSE event streams currently subscribed.",
        )
        self._sse_events_sent = metrics.counter(
            "gateway_sse_events_sent_total",
            "SSE event frames written (journal and control events).",
        )
        self._sse_bytes_sent = metrics.counter(
            "gateway_sse_bytes_sent_total",
            "Bytes written to SSE streams, heartbeats included.",
        )
        self._etag_hits = metrics.counter(
            "gateway_etag_hits_total",
            "Conditional state GETs answered 304 from the snapshot cache.",
        )
        self._etag_misses = metrics.counter(
            "gateway_etag_misses_total",
            "State GETs that needed a full body (cached or dispatched).",
        )
        self._queue_dropped = metrics.counter(
            "gateway_sse_queue_dropped_total",
            "Events dropped on full per-connection SSE queues.",
        )
        cache = self._cache
        metrics.counter_fn(
            "gateway_snapshot_cache_hits_total",
            "State GETs answered from a cached snapshot, with no build.",
            lambda: cache.hits,
        )
        metrics.counter_fn(
            "gateway_snapshot_cache_populates_total",
            "Snapshot builds the cache dispatched to the writer thread.",
            lambda: cache.populates,
        )
        metrics.counter_fn(
            "gateway_snapshot_cache_invalidations_total",
            "Drops of every cached snapshot (tick steps, admin writes).",
            lambda: cache.invalidations,
        )
        metrics.counter_fn(
            "gateway_snapshot_cache_tenant_invalidations_total",
            "Drops of one tenant's cached snapshot (tenant-scoped writes).",
            lambda: cache.tenant_invalidations,
        )
        self._broker = StreamBroker(
            ecovisor,
            queue_size=self._config.queue_size,
            on_queue_drop=self._queue_dropped.inc,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._broker.bind_loop(self._loop)
        self._server = await asyncio.start_server(
            self._handle_connection, self._config.host, self._config.port
        )

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Long-lived SSE handlers never return on their own; cancel and
        # reap them so shutdown is quiet and deterministic.
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
            self._connections.clear()
        self._executor.shutdown(wait=True)

    @property
    def host(self) -> str:
        return self._config.host

    @property
    def port(self) -> int:
        """The bound port (resolves ephemeral port 0 after ``start``)."""
        if self._server is None:
            return self._config.port
        return self._server.sockets[0].getsockname()[1]

    @property
    def rest(self) -> EcovisorRestServer:
        return self._rest

    @property
    def ecovisor(self) -> Ecovisor:
        return self._ecovisor

    @property
    def cache(self) -> SnapshotCache:
        return self._cache

    @property
    def broker(self) -> StreamBroker:
        return self._broker

    async def run_on_writer(self, fn: Callable[..., T], *args: Any) -> T:
        """Run ``fn`` on the single writer thread and await its result."""
        if self._loop is None:
            raise RuntimeError("gateway not started")
        return await self._loop.run_in_executor(
            self._executor, functools.partial(fn, *args)
        )

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._open_connections.inc()
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionResetError, BrokenPipeError, TimeoutError):
            pass
        except asyncio.CancelledError:
            # Cancellation only comes from `stop()`; fall through to the
            # teardown below instead of surfacing at loop shutdown.
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            self._open_connections.dec()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            try:
                request = await read_request(reader)
            except BadRequest as exc:
                writer.write(
                    json_response(
                        exc.status, {"error": str(exc)}, keep_alive=False
                    )
                )
                await writer.drain()
                return
            if request is None:
                return
            path, _query = split_target(request.target)
            app, rest = _route_tenant(path)
            if rest == "events/stream" and request.method == "GET":
                await self._serve_stream(app, request, writer)
                return  # the stream consumes the rest of the connection
            payload = await self._respond(request, app, rest)
            writer.write(payload)
            await writer.drain()
            if not request.keep_alive:
                return

    async def _respond(
        self, request: HttpRequest, app: Optional[str], rest: str
    ) -> bytes:
        """Rendered response bytes for one non-stream request.

        ``app`` and ``rest`` split a ``/v1/apps/{app}/{rest}`` path
        (``app`` is None for any other path).
        """
        if rest == "state" and request.method == "GET":
            cached = await self._serve_state(app, request)
            if cached is not None:
                return cached
        try:
            body = request.json_body()
        except BadRequest as exc:
            return json_response(exc.status, {"error": str(exc)})
        response = await self.run_on_writer(
            self._dispatch_on_writer, request.method, request.target, body,
            dict(request.headers),
        )
        if request.method != "GET":
            # Mutations can change what the state route answers.  A
            # tenant route's handlers act only on the tenant it names,
            # so its write drops that tenant's snapshot; admin writes
            # (admissions, evictions, shares) drop every snapshot.
            if app is None:
                self._cache.invalidate()
            else:
                self._cache.invalidate_app(app)
        return self._render(response)

    def _dispatch_on_writer(
        self,
        method: str,
        target: str,
        body: Optional[Dict[str, Any]],
        headers: Dict[str, str],
    ) -> Response:
        """One sync dispatch + broker pump, on the writer thread."""
        try:
            return self._rest.request(method, target, body, headers=headers)
        finally:
            self._broker.pump()

    def _render(self, response: Response) -> bytes:
        headers = dict(response.headers)
        if response.status == 304 or response.body is None:
            return render_response(response.status, headers)
        if isinstance(response.body, str):
            headers.setdefault("Content-Type", "text/plain; charset=utf-8")
            return render_response(
                response.status, headers, response.body.encode("utf-8")
            )
        headers.setdefault("Content-Type", "application/json")
        body = json.dumps(response.body, sort_keys=True).encode("utf-8")
        return render_response(response.status, headers, body)

    # ------------------------------------------------------------------
    # Cached state route
    # ------------------------------------------------------------------
    async def _serve_state(
        self, app_name: str, request: HttpRequest
    ) -> Optional[bytes]:
        """Serve ``GET .../state`` from the per-tick cache.

        Returns ``None`` when the snapshot is uncacheable (unknown app,
        handler error) — the caller falls back to a generic dispatch so
        the error response carries the sync layer's exact body.
        """
        cache = self._cache
        entry = cache.get(app_name)
        if entry is not None:
            cache.hits += 1
        else:
            entry = await cache.populate(
                app_name, functools.partial(self._build_state_entry, app_name)
            )
            if entry is None:
                return None
        if etag_matches(request.headers.get("if-none-match"), entry.etag):
            self._etag_hits.inc()
            return entry.not_modified_response
        self._etag_misses.inc()
        return entry.fresh_response

    async def _build_state_entry(self, app_name: str) -> Optional[CacheEntry]:
        response = await self.run_on_writer(
            self._dispatch_on_writer,
            "GET", f"{_APPS_PREFIX}{app_name}/state", None, {},
        )
        if response.status != 200 or response.etag is None:
            return None
        cache_control = response.header("Cache-Control") or SNAPSHOT_CACHE_CONTROL
        not_modified = render_response(
            304, {"ETag": response.etag, "Cache-Control": cache_control}
        )
        return CacheEntry(
            etag=response.etag,
            fresh_response=self._render(response),
            not_modified_response=not_modified,
        )

    # ------------------------------------------------------------------
    # SSE streaming
    # ------------------------------------------------------------------
    async def _serve_stream(
        self, app_name: str, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        _path, query = split_target(request.target)
        cursor = 0
        last_id = request.headers.get("last-event-id")
        source = last_id
        if source is None and query:
            for pair in query.split("&"):
                key, _, value = pair.partition("=")
                if key == "cursor":
                    source = value
        try:
            if source is not None:
                cursor = int(source)
                if last_id is not None:
                    cursor += 1  # resume *after* the last seen event
                if cursor < 0:
                    raise ValueError
        except ValueError:
            writer.write(
                json_response(
                    400,
                    {"error": f"invalid stream cursor: {source!r}"},
                    keep_alive=False,
                )
            )
            await writer.drain()
            return
        try:
            subscriber, backlog = await self.run_on_writer(
                self._broker.register, app_name, cursor
            )
        except UnknownApplicationError as exc:
            writer.write(
                json_response(404, {"error": str(exc)}, keep_alive=False)
            )
            await writer.drain()
            return
        self._sse_streams_open.inc()
        try:
            writer.write(_SSE_HEAD)
            self._write_frame(
                writer,
                _open_frame(app_name, subscriber.cursor),
                count_event=True,
            )
            ended = False
            for item in backlog:
                self._write_frame(writer, item.frame(), count_event=True)
                ended = ended or item.terminal
            await writer.drain()
            while not ended:
                ended = await self._stream_once(subscriber, writer)
        except (ConnectionResetError, BrokenPipeError, TimeoutError, OSError):
            pass
        finally:
            self._broker.unregister(subscriber)
            self._sse_streams_open.dec()

    async def _stream_once(
        self, subscriber: Subscriber, writer: asyncio.StreamWriter
    ) -> bool:
        """Forward queued items (or a heartbeat); True when the stream ends."""
        try:
            item = await asyncio.wait_for(
                subscriber.queue.get(), timeout=self._config.heartbeat_seconds
            )
        except asyncio.TimeoutError:
            self._write_frame(writer, HEARTBEAT_FRAME, count_event=False)
            await writer.drain()
            return False
        ended = False
        while True:
            self._write_frame(writer, item.frame(), count_event=True)
            if item.terminal:
                ended = True
                break
            try:
                item = subscriber.queue.get_nowait()
            except asyncio.QueueEmpty:
                break
        await writer.drain()
        return ended

    def _write_frame(
        self, writer: asyncio.StreamWriter, frame: bytes, *, count_event: bool
    ) -> None:
        writer.write(frame)
        self._sse_bytes_sent.inc(len(frame))
        if count_event:
            self._sse_events_sent.inc()


def _open_frame(app_name: str, cursor: int) -> bytes:
    """The greeting control frame: tells the client where the stream starts."""
    payload = json.dumps(
        {"app_name": app_name, "cursor": cursor}, sort_keys=True
    )
    return format_sse_event("stream_open", payload)
