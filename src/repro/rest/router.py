"""REST-shaped request router.

The prototype "runs on an external server and exposes a REST API to
applications" (paper Section 4).  This module reproduces the API's shape
in-process: JSON-dict requests dispatched by (method, path) to handlers,
with path parameters, query strings, JSON bodies, and HTTP-like status
codes — without a network dependency, so the full surface is
unit-testable.

Dispatch semantics follow HTTP: an unknown path is ``404``; a known path
reached with the wrong method is ``405 Method Not Allowed`` carrying an
``Allow`` header that lists the methods the path does serve.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qsl

from repro.core.errors import (
    AuthorizationError,
    ConfigurationError,
    EcovisorError,
    UnknownApplicationError,
    UnknownContainerError,
)
from repro.obs.metrics import Counter, Histogram, MetricsRegistry

#: Request-latency buckets: in-process dispatch is microseconds, but a
#: handler walking a long series can reach milliseconds.
REQUEST_LATENCY_BUCKETS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 1.0,
)

#: The ``route`` label for requests no route pattern matched (404s).
#: A fixed label instead of the raw path, so an attacker probing random
#: paths cannot inflate series cardinality.
UNMATCHED_ROUTE_LABEL = "unmatched"

Handler = Callable[["Request"], Any]

_PARAM_PATTERN = re.compile(r"\{(\w+)\}")


def _header_lookup(
    headers: Dict[str, str], name: str, default: Optional[str] = None
) -> Optional[str]:
    """Case-insensitive header lookup (HTTP header names have no case).

    Header dicts here hold a handful of entries at most, so a linear
    scan beats building a lowered copy per request.
    """
    folded = name.lower()
    for key, value in headers.items():
        if key.lower() == folded:
            return value
    return default


@dataclass(frozen=True)
class Request:
    """One API request.

    ``params`` are path parameters (``{app}``-style segments); ``query``
    holds the parsed query string (``?cursor=3``) with string values,
    last occurrence winning; ``headers`` carries request headers
    (``If-None-Match`` and friends), looked up case-insensitively via
    :meth:`header`.
    """

    method: str
    path: str
    params: Dict[str, str] = field(default_factory=dict)
    body: Dict[str, Any] = field(default_factory=dict)
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)

    def header(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """The named request header, case-insensitively."""
        return _header_lookup(self.headers, name, default)


@dataclass(frozen=True)
class Response:
    """One API response with an HTTP-like status code and headers."""

    status: int
    body: Any = None
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def header(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """The named response header, case-insensitively."""
        return _header_lookup(self.headers, name, default)

    @property
    def etag(self) -> Optional[str]:
        """The ``ETag`` header of a conditional-GET response, if any."""
        return self.header("ETag")


class Route:
    """A compiled route pattern like ``/apps/{app}/containers/{cid}``."""

    def __init__(self, method: str, pattern: str, handler: Handler):
        self.method = method.upper()
        self.pattern = pattern
        self.handler = handler
        regex = _PARAM_PATTERN.sub(r"(?P<\1>[^/]+)", pattern)
        self._regex = re.compile(f"^{regex}$")

    def match_path(self, path: str) -> Optional[Dict[str, str]]:
        """Path parameters if ``path`` matches the pattern (any method)."""
        found = self._regex.match(path)
        if found is None:
            return None
        return found.groupdict()

    def match(self, method: str, path: str) -> Optional[Dict[str, str]]:
        if method.upper() != self.method:
            return None
        return self.match_path(path)


class Router:
    """Dispatches requests to the first matching route."""

    def __init__(self):
        self._routes: List[Route] = []
        self._requests: Optional[Counter] = None
        self._latency: Optional[Histogram] = None

    def instrument(self, registry: MetricsRegistry) -> None:
        """Count and time every dispatch into ``registry``.

        Registers ``http_requests_total{route,status}`` and
        ``http_request_seconds{route}``.  *Every* dispatch is counted —
        including requests no handler saw: a 405 is labeled with the
        route pattern whose path matched (the method did not), and a
        404 with the fixed ``unmatched`` label, so probing traffic is
        visible without unbounded label cardinality.
        """
        self._requests = registry.counter(
            "http_requests_total",
            "API requests dispatched, by route pattern and status.",
            labelnames=("route", "status"),
        )
        self._latency = registry.histogram(
            "http_request_seconds",
            "In-process dispatch latency, by route pattern.",
            labelnames=("route",),
            buckets=REQUEST_LATENCY_BUCKETS,
        )

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        self._routes.append(Route(method, pattern, handler))

    def routes(self) -> List[Tuple[str, str]]:
        return [(r.method, r.pattern) for r in self._routes]

    def route_table(self) -> List[Tuple[str, str, str]]:
        """Every route as ``(method, pattern, backing_call)``.

        The backing call is the handler's name with any leading
        underscore stripped — the identifier the docs route table and
        the ``repro routes`` CLI subcommand print.
        """
        return [
            (r.method, r.pattern, getattr(r.handler, "__name__", "?").lstrip("_"))
            for r in self._routes
        ]

    def dispatch(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Response:
        """Route a request; maps library errors onto HTTP status codes.

        ``path`` may carry a query string (``/x?cursor=3``), parsed into
        ``Request.query``; ``headers`` become ``Request.headers``
        (conditional-GET validators ride here).  A handler may return a
        full :class:`Response` (custom statuses and headers); any other
        return value becomes a 200 body.
        """
        requests = self._requests
        if requests is None:
            return self._dispatch(method, path, body, headers)[0]
        start = perf_counter()
        response, route_label = self._dispatch(method, path, body, headers)
        elapsed = perf_counter() - start
        requests.labels(route=route_label, status=str(response.status)).inc()
        self._latency.labels(route=route_label).observe(elapsed)
        return response

    def _dispatch(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[Response, str]:
        """Dispatch plus the route label the metrics should carry.

        The label is the matched route's *pattern* (not the concrete
        path), so cardinality is bounded by the route table; a 405
        carries the pattern whose path matched, a 404 the fixed
        ``unmatched`` label.
        """
        path, _, query_string = path.partition("?")
        query = dict(parse_qsl(query_string)) if query_string else {}
        method = method.upper()
        allowed: List[str] = []
        allowed_pattern: Optional[str] = None
        for route in self._routes:
            params = route.match_path(path)
            if params is None:
                continue
            if route.method != method:
                allowed.append(route.method)
                if allowed_pattern is None:
                    allowed_pattern = route.pattern
                continue
            request = Request(
                method=method,
                path=path,
                params=params,
                body=body or {},
                query=query,
                headers=headers or {},
            )
            try:
                result = route.handler(request)
            except (UnknownContainerError, UnknownApplicationError) as exc:
                return Response(404, {"error": str(exc)}), route.pattern
            except AuthorizationError as exc:
                return Response(403, {"error": str(exc)}), route.pattern
            except (ConfigurationError, ValueError) as exc:
                return Response(400, {"error": str(exc)}), route.pattern
            except EcovisorError as exc:
                return Response(500, {"error": str(exc)}), route.pattern
            if isinstance(result, Response):
                return result, route.pattern
            return Response(200, result), route.pattern
        if allowed:
            return (
                Response(
                    405,
                    {"error": f"method {method} not allowed for {path}"},
                    headers={"Allow": ", ".join(sorted(set(allowed)))},
                ),
                allowed_pattern or UNMATCHED_ROUTE_LABEL,
            )
        return (
            Response(404, {"error": f"no route for {method} {path}"}),
            UNMATCHED_ROUTE_LABEL,
        )
