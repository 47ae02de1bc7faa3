"""Typed Python client for the ecovisor's versioned REST surface.

:class:`EcovisorClient` mirrors the ``/v1`` route table over the Router
transport: each ``/v1/apps/{app}`` route has a method.  Calls that
:class:`~repro.core.api.EcovisorAPI` also has keep its name, parameters
and — pinned by the parity tests — return values; each scalar ``get_*``
returns the same value as its ``state()`` field; and
:class:`~repro.core.state.EnergyState` and the signal dataclasses are
reconstructed losslessly from the wire format.  The one in-process-only
call is ``register_tick``: an upcall cannot cross the transport, so
external controllers poll :meth:`EcovisorClient.events` (the cursor-paged
journal feed) instead.

:class:`EcovisorAdminClient` drives the v1.1 control plane: dynamic
admission, share rebalancing, and eviction.

A *transport* is anything with the in-process server's request shape::

    response = transport.request(method, path, body)   # -> Response-like

:class:`~repro.rest.server.EcovisorRestServer` is the canonical
transport (same process, no sockets); an HTTP adapter only needs to
return an object with ``status``, ``body``, and ``headers``.

Error mapping inverts the router's: 404 raises
``UnknownApplicationError``/``UnknownContainerError``, 403 raises
``AuthorizationError``, 400 raises ``ConfigurationError`` — so client
code can catch the same exception types as in-process code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.core.errors import (
    AuthorizationError,
    ConfigurationError,
    EcovisorError,
    UnknownApplicationError,
    UnknownContainerError,
)
from repro.core.events import Event, event_from_dict
from repro.core.journal import JournalPage
from repro.core.state import EnergyState

#: SSE control-event names the gateway interleaves with journal events;
#: :meth:`EcovisorClient.stream_events` filters them out unless ``raw``.
STREAM_CONTROL_EVENTS = frozenset(
    {"stream_open", "journal_dropped", "queue_dropped", "stream_end"}
)


class TransportError(EcovisorError):
    """The transport returned an error status the client cannot map."""

    def __init__(self, status: int, message: str):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


@dataclass(frozen=True)
class ContainerInfo:
    """Wire-level view of one container (the REST listing shape)."""

    id: str
    cores: float
    role: str
    power_cap_w: Optional[float] = None


@dataclass(frozen=True)
class AppShare:
    """One application's share as reported by the admin namespace."""

    name: str
    solar_fraction: float
    battery_fraction: float
    grid_power_w: float


#: The SDK's event page *is* the core journal page — one type on both
#: sides of the transport, so the wire format cannot drift from it.
EventPage = JournalPage


def _raise_for_status(status: int, message: str) -> None:
    if status == 404:
        # The router's 404 bodies are the errors' own messages, whose
        # prefixes discriminate exactly (an app *named* "container"
        # must not map onto UnknownContainerError).
        if message.startswith("unknown container:"):
            # The error repr-quotes the id; strip the quotes.
            raise UnknownContainerError(message.split(": ", 1)[-1].strip("'"))
        raise UnknownApplicationError(message.split(": ", 1)[-1].strip("'"))
    if status == 403:
        raise AuthorizationError(message)
    if status == 400:
        raise ConfigurationError(message)
    raise TransportError(status, message)


class _ClientBase:
    """Shared request plumbing for the app and admin clients."""

    def __init__(self, transport: Any):
        self._transport = transport

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Any:
        response = self._transport.request(method, path, body)
        if 200 <= response.status < 300:
            return response.body
        error = ""
        if isinstance(response.body, dict):
            error = str(response.body.get("error", ""))
        _raise_for_status(response.status, error)

    # ------------------------------------------------------------------
    # Observability (shared by app and admin clients)
    # ------------------------------------------------------------------
    def metrics(self) -> str:
        """The server's metrics in Prometheus text exposition format."""
        return self._request("GET", "/v1/metrics")

    def tick_profile(self, last: Optional[int] = None) -> Dict[str, Any]:
        """The tick profiler's ring buffer (``last`` most recent ticks)."""
        path = "/v1/metrics/ticks"
        if last is not None:
            path += f"?last={last}"
        return self._request("GET", path)


class EcovisorClient(_ClientBase):
    """Per-application SDK handle over the ``/v1/apps/{app}`` routes."""

    def __init__(self, transport: Any, app_name: str):
        super().__init__(transport)
        self._app_name = app_name
        self._base = f"/v1/apps/{app_name}"

    @property
    def app_name(self) -> str:
        return self._app_name

    # ------------------------------------------------------------------
    # Snapshot observation (API v1)
    # ------------------------------------------------------------------
    def state(self) -> EnergyState:
        """The application's per-tick snapshot, one round-trip."""
        return EnergyState.from_dict(self._request("GET", f"{self._base}/state"))

    # ------------------------------------------------------------------
    # Event feed (the transport-side counterpart of ``api.signals``)
    # ------------------------------------------------------------------
    def events(self, cursor: int = 0, limit: Optional[int] = None) -> EventPage:
        """One cursor-paged read of the application's journaled signals.

        Pass the returned ``next_cursor`` on the next poll; ``dropped``
        counts events lost to the bounded journal before the cursor.
        """
        path = f"{self._base}/events?cursor={cursor}"
        if limit is not None:
            path += f"&limit={limit}"
        payload = self._request("GET", path)
        return EventPage(
            app_name=payload["app_name"],
            events=tuple(event_from_dict(e) for e in payload["events"]),
            next_cursor=payload["next_cursor"],
            dropped=payload["dropped"],
            journal_dropped=payload.get("journal_dropped", 0),
        )

    def iter_events(self, cursor: int = 0) -> Iterator[Event]:
        """Yield all currently journaled events from ``cursor`` onward."""
        page = self.events(cursor=cursor)
        yield from page.events

    def stream_events(
        self,
        cursor: int = 0,
        raw: bool = False,
        max_events: Optional[int] = None,
    ) -> Iterator[Any]:
        """Live-stream the application's journaled signals over SSE.

        Requires a streaming transport —
        :class:`repro.client.http.HttpTransport` against a running
        gateway (``repro serve``); the in-process transport raises.
        Yields :class:`Event` objects exactly as :meth:`iter_events`
        would reconstruct them from cursor polls (the stream-parity
        test pins the wire bytes identical); with ``raw=True`` yields
        every :class:`~repro.client.http.StreamFrame` instead,
        control events (``stream_open``, ``journal_dropped``,
        ``queue_dropped``, ``stream_end``) included.  Returns when the
        server ends the stream (eviction) or after ``max_events``
        yielded items.
        """
        stream = getattr(self._transport, "stream", None)
        if stream is None:
            raise EcovisorError(
                "transport does not support streaming; connect an "
                "HttpTransport to a running gateway (`repro serve`)"
            )
        frames = stream(f"{self._base}/events/stream?cursor={cursor}")
        yielded = 0
        try:
            for frame in frames:
                terminal = frame.event == "stream_end"
                if raw:
                    yield frame
                elif terminal or frame.event in STREAM_CONTROL_EVENTS:
                    if terminal:
                        return
                    continue
                else:
                    yield event_from_dict(json.loads(frame.data))
                yielded += 1
                if terminal or (max_events is not None and yielded >= max_events):
                    return
        finally:
            frames.close()

    # ------------------------------------------------------------------
    # Setters (Table 1)
    # ------------------------------------------------------------------
    def set_container_powercap(
        self, container_id: str, watts: Optional[float]
    ) -> None:
        self._request(
            "POST",
            f"{self._base}/containers/{container_id}/powercap",
            {"watts": watts},
        )

    def set_battery_charge_rate(self, watts: float) -> None:
        self._request("POST", f"{self._base}/battery/charge_rate", {"watts": watts})

    def set_battery_max_discharge(self, watts: float) -> None:
        self._request(
            "POST", f"{self._base}/battery/max_discharge", {"watts": watts}
        )

    # ------------------------------------------------------------------
    # Getters (Table 1) — same values as the matching state() fields
    # ------------------------------------------------------------------
    def get_solar_power(self) -> float:
        return self._request("GET", f"{self._base}/solar")["solar_w"]

    def get_grid_power(self) -> float:
        return self._request("GET", f"{self._base}/grid")["grid_w"]

    def get_grid_carbon(self) -> float:
        return self._request("GET", f"{self._base}/carbon")["carbon_g_per_kwh"]

    def get_grid_price(self) -> float:
        return self._request("GET", f"{self._base}/price")["price_usd_per_kwh"]

    def get_energy_cost(self) -> float:
        return self._request("GET", f"{self._base}/cost")["cost_usd"]

    def get_battery_discharge_rate(self) -> float:
        return self._request("GET", f"{self._base}/battery")["discharge_rate_w"]

    def get_battery_charge_level(self) -> float:
        return self._request("GET", f"{self._base}/battery")["charge_level_wh"]

    def get_battery_capacity(self) -> float:
        return self._request("GET", f"{self._base}/battery")["capacity_wh"]

    def get_container_powercap(self, container_id: str) -> Optional[float]:
        return self._request(
            "GET", f"{self._base}/containers/{container_id}/powercap"
        )["powercap_w"]

    def get_container_power(self, container_id: str) -> float:
        return self._request(
            "GET", f"{self._base}/containers/{container_id}/power"
        )["power_w"]

    # ------------------------------------------------------------------
    # Container and resource management (Section 3.1)
    # ------------------------------------------------------------------
    def launch_container(
        self, cores: float, gpu: bool = False, role: str = "worker"
    ) -> ContainerInfo:
        payload = self._request(
            "POST",
            f"{self._base}/containers",
            {"cores": cores, "gpu": gpu, "role": role},
        )
        return ContainerInfo(
            id=payload["id"], cores=payload["cores"], role=payload["role"]
        )

    def stop_container(self, container_id: str) -> None:
        self._request("DELETE", f"{self._base}/containers/{container_id}")

    def scale_to(
        self, count: int, cores: float, gpu: bool = False, role: str = "worker"
    ) -> List[str]:
        """Scale the role pool to ``count``; returns the container ids."""
        payload = self._request(
            "POST",
            f"{self._base}/scale",
            {"count": count, "cores": cores, "gpu": gpu, "role": role},
        )
        return list(payload["containers"])

    def set_container_cores(self, container_id: str, cores: float) -> None:
        self._request(
            "POST",
            f"{self._base}/containers/{container_id}/cores",
            {"cores": cores},
        )

    def list_containers(self) -> List[ContainerInfo]:
        payload = self._request("GET", f"{self._base}/containers")
        return [
            ContainerInfo(
                id=c["id"],
                cores=c["cores"],
                role=c["role"],
                power_cap_w=c["power_cap_w"],
            )
            for c in payload["containers"]
        ]

    def __repr__(self) -> str:
        return f"EcovisorClient(app={self._app_name!r})"


class EcovisorAdminClient(_ClientBase):
    """Control-plane SDK: dynamic admission, rebalancing, eviction."""

    def list_apps(self) -> List[AppShare]:
        payload = self._request("GET", "/v1/admin/apps")
        return [_app_share(entry) for entry in payload["apps"]]

    def get_app(self, name: str) -> AppShare:
        return _app_share(self._request("GET", f"/v1/admin/apps/{name}"))

    def admit_app(
        self,
        name: str,
        solar_fraction: float = 0.0,
        battery_fraction: float = 0.0,
        grid_power_w: float = float("inf"),
    ) -> AppShare:
        """Admit an application (usable mid-run); returns its share."""
        return _app_share(
            self._request(
                "POST",
                "/v1/admin/apps",
                {
                    "name": name,
                    "solar_fraction": solar_fraction,
                    "battery_fraction": battery_fraction,
                    "grid_power_w": grid_power_w,
                },
            )
        )

    def set_share(self, name: str, **fields: float) -> int:
        """Stage a share rebalance; returns the tick it takes effect at.

        Keyword fields (``solar_fraction``, ``battery_fraction``,
        ``grid_power_w``) default to the app's current share.
        """
        payload = self._request("PATCH", f"/v1/admin/apps/{name}", dict(fields))
        return payload["effective_at_tick"]

    def evict_app(self, name: str) -> Dict[str, Any]:
        """Evict an application; returns its finalized ledger account."""
        return self._request("DELETE", f"/v1/admin/apps/{name}")["account"]

    def __repr__(self) -> str:
        return "EcovisorAdminClient()"


def _app_share(payload: Dict[str, Any]) -> AppShare:
    return AppShare(
        name=payload["name"],
        solar_fraction=payload["solar_fraction"],
        battery_fraction=payload["battery_fraction"],
        grid_power_w=payload["grid_power_w"],
    )
