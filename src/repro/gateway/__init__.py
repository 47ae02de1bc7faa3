"""Async API gateway: the network front-end of the ecovisor API.

The paper's prototype "runs on an external server and exposes a REST
API to applications" (Section 4); ROADMAP item 2 asks that surface to
hold up under heavy concurrent traffic.  This package is that serving
layer: an asyncio HTTP/1.1 server (stdlib only) wrapping the
synchronous in-process :class:`~repro.rest.server.EcovisorRestServer`.

Three design rules keep the gateway from perturbing the simulation:

- **Single writer.**  Every sim-touching dispatch and every tick step
  runs on one dedicated executor thread, in arrival order.  The event
  loop never touches the ecovisor directly, so a thousand concurrent
  clients interleave exactly like a thousand sequential ones and tick
  determinism is preserved (pinned by the gateway parity tests).
- **Shared snapshots.**  ``GET /v1/apps/{app}/state`` is served from a
  per-tick response cache: the first poller after a tick (or after a
  write to that tenant) pays one dispatch + one serialization; everyone
  else gets the same bytes, and ``If-None-Match`` hits never leave the
  event loop.
- **Push, not poll.**  ``GET /v1/apps/{app}/events/stream`` streams the
  event journal over Server-Sent Events with heartbeats,
  ``Last-Event-ID`` resume mapped to journal cursors, and bounded
  per-connection queues with drop counters.
"""

from repro.gateway.cache import SnapshotCache
from repro.gateway.driver import TickDriver
from repro.gateway.http import HttpRequest, read_request, render_response
from repro.gateway.server import GatewayConfig, GatewayServer
from repro.gateway.sse import StreamBroker, Subscriber, format_sse_event

__all__ = [
    "GatewayConfig",
    "GatewayServer",
    "HttpRequest",
    "SnapshotCache",
    "StreamBroker",
    "Subscriber",
    "TickDriver",
    "format_sse_event",
    "read_request",
    "render_response",
]
