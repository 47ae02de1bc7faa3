"""The ecovisor's REST surface (versioned, snapshot-first v1).

Maps the Table 1 API (plus container management) onto routes, mirroring
the prototype's REST server.  Applications are identified by the ``app``
path segment; every route goes through the same per-application
authorization as the in-process API.

The surface is versioned under ``/v1``.  The headline route is::

    GET /v1/apps/{app}/state

which returns the application's full immutable per-tick
:class:`~repro.core.state.EnergyState` snapshot in **one** round-trip —
solar, grid, carbon, price, battery (``null`` without a battery share),
per-container power, and cumulative ledger figures — instead of one
round-trip per field.  Every route lives under ``/v1``; any other path
answers 404.

Control plane v1.1 adds the **admin namespace** (dynamic application
lifecycle under ``/v1/admin``) and the **event feed**:
``GET /v1/apps/{app}/events?cursor=N`` is a cursor-paged read of the
application's bounded event journal, letting an external controller
tail the signals the in-process ``SignalBus`` delivered without holding
a callback in this process.

Routes (all under ``/v1``):

==========  =============================================  ===================
Method      Path                                            Backing call
==========  =============================================  ===================
GET         /v1/apps/{app}/state                            api.state()
GET         /v1/apps/{app}/solar                            state.solar_power_w
GET         /v1/apps/{app}/grid                             state.grid_power_w
GET         /v1/apps/{app}/carbon                           state.grid_carbon_g_per_kwh
GET         /v1/apps/{app}/price                            state.grid_price_usd_per_kwh
GET         /v1/apps/{app}/cost                             state.total_cost_usd
GET         /v1/apps/{app}/battery                          state.battery
POST        /v1/apps/{app}/battery/charge_rate              set_battery_charge_rate
POST        /v1/apps/{app}/battery/max_discharge            set_battery_max_discharge
GET         /v1/apps/{app}/containers                       list containers
POST        /v1/apps/{app}/containers                       launch container
DELETE      /v1/apps/{app}/containers/{cid}                 stop container
GET         /v1/apps/{app}/containers/{cid}/power           state.container_power_w
GET         /v1/apps/{app}/containers/{cid}/powercap        get_container_powercap
POST        /v1/apps/{app}/containers/{cid}/powercap        set_container_powercap
POST        /v1/apps/{app}/containers/{cid}/cores           set_container_cores
POST        /v1/apps/{app}/scale                            horizontal scale
GET         /v1/apps/{app}/events                           ecovisor.events_for
GET         /v1/apps/{app}/events/stream                    SSE (async gateway)
GET         /v1/metrics                                     metrics.render (Prometheus text)
GET         /v1/metrics/ticks                               profiler.ticks_payload
GET         /v1/admin/apps                                  ecovisor.app_shares
POST        /v1/admin/apps                                  ecovisor.admit_app
GET         /v1/admin/apps/{app}                            ecovisor.share_for
PATCH       /v1/admin/apps/{app}                            ecovisor.set_share
DELETE      /v1/admin/apps/{app}                            ecovisor.evict_app
==========  =============================================  ===================
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, Optional

from repro.core.accounting import AppAccount
from repro.core.api import EcovisorAPI, connect
from repro.core.config import ShareConfig
from repro.core.ecovisor import Ecovisor
from repro.core.events import AppEvictedEvent, event_to_dict
from repro.core.state import EnergyState
from repro.rest.router import Request, Response, Router

_MISSING = object()

#: Version prefix of the current API surface.
API_PREFIX = "/v1"

#: ``Cache-Control`` for snapshot-derived reads: a cached copy may be
#: reused only after revalidation (the ETag below makes that one cheap
#: 304 round-trip instead of a re-serialization).
SNAPSHOT_CACHE_CONTROL = "max-age=0, must-revalidate"

#: ``Cache-Control`` for the metrics scrape and the admin namespace:
#: live operational state, never cacheable.
NO_STORE_CACHE_CONTROL = "no-store"

#: Routes the async gateway serves over Server-Sent Events rather than
#: one-shot request/response.  The ``repro routes`` CLI uses this to
#: mark each row's transport; the sync in-process server answers them
#: with 501 pointing at ``repro serve``.
SSE_ROUTES = frozenset({("GET", "/v1/apps/{app}/events/stream")})


def snapshot_etag(state: EnergyState) -> str:
    """The strong ETag of one application's per-tick snapshot.

    Keyed on ``(app, tick, settled)``: a snapshot is immutable once
    built, but the same tick index exists in two versions (pre- and
    post-settlement), so the settled flag must participate or a cached
    mid-tick body could shadow the finalized one.
    """
    return f'"{state.app_name}:{state.tick_index}:{int(state.settled)}"'


def etag_matches(header_value: Optional[str], etag: str) -> bool:
    """Whether an ``If-None-Match`` header revalidates ``etag``.

    Handles the ``*`` wildcard, comma-separated candidate lists, and
    weak validators (``W/"..."`` compares equal to its strong form —
    byte-range semantics don't apply to JSON bodies).
    """
    if header_value is None:
        return False
    if header_value.strip() == "*":
        return True
    for candidate in header_value.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:]
        if candidate == etag:
            return True
    return False


def _body_field(request: Request, name: str, cast: Callable, default: Any = _MISSING):
    """Extract and convert one body field; raises ``ValueError`` on bad input.

    Validation happens here, at the handler edge, so a missing or
    malformed *client* field maps to 400 while genuine server bugs
    (stray KeyError/TypeError deeper in the stack) still surface as 500.
    """
    if name in request.body:
        raw = request.body[name]
    elif default is not _MISSING:
        raw = default
    else:
        raise ValueError(f"missing field: {name!r}")
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed field {name!r}: {exc}") from None


def _query_field(request: Request, name: str, cast: Callable, default: Any = _MISSING):
    """Extract and convert one query-string parameter (400 on bad input).

    The missing-value default is returned *uncast*, so ``default=None``
    means "parameter absent" rather than ``cast(None)``.
    """
    if name not in request.query:
        if default is not _MISSING:
            return default
        raise ValueError(f"missing query parameter: {name!r}")
    try:
        return cast(request.query[name])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed query parameter {name!r}: {exc}") from None


class EcovisorRestServer:
    """In-process REST facade over an :class:`Ecovisor`."""

    def __init__(self, ecovisor: Ecovisor):
        self._ecovisor = ecovisor
        self._apis: Dict[str, EcovisorAPI] = {}
        self._router = Router()
        self._install_routes()
        # Count and time every dispatch — including 404/405 paths no
        # handler sees — into the ecovisor's registry, which the
        # /v1/metrics route below then serves.
        self._router.instrument(ecovisor.metrics)
        # Invalidate the cached per-app API handle on *any* eviction —
        # in-process, engine-scheduled, or via this server's own admin
        # route — so a re-admission under the same name binds a fresh
        # virtual energy system instead of the evicted one.
        ecovisor.events.subscribe(AppEvictedEvent, self._on_app_evicted)

    def _on_app_evicted(self, event: AppEvictedEvent) -> None:
        self._apis.pop(event.app_name, None)

    @property
    def router(self) -> Router:
        return self._router

    def request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        headers: dict | None = None,
    ) -> Response:
        """Issue one request against the API surface.

        ``headers`` carries request headers (e.g. ``If-None-Match`` for
        conditional GETs).
        """
        return self._router.dispatch(method, path, body, headers)

    # ------------------------------------------------------------------
    # Route handlers
    # ------------------------------------------------------------------
    def _api(self, app_name: str) -> EcovisorAPI:
        if app_name not in self._apis:
            # connect() raises UnknownApplicationError for unregistered apps.
            self._ecovisor.ves_for(app_name)
            self._apis[app_name] = connect(self._ecovisor, app_name)
        return self._apis[app_name]

    def _add(self, method: str, pattern: str, handler) -> None:
        """Register a route under the ``/v1`` prefix."""
        self._router.add(method, API_PREFIX + pattern, handler)

    def _snapshot_response(self, request: Request, payload_fn) -> Response:
        """Serve one snapshot-derived read with conditional-GET support.

        Every snapshot route carries ``ETag`` (keyed on app/tick/settled)
        and ``Cache-Control: max-age=0, must-revalidate``; a matching
        ``If-None-Match`` validator short-circuits to ``304 Not
        Modified`` without serializing a body.
        """
        state = self._api(request.params["app"]).state()
        etag = snapshot_etag(state)
        headers = {"ETag": etag, "Cache-Control": SNAPSHOT_CACHE_CONTROL}
        if etag_matches(request.header("If-None-Match"), etag):
            return Response(304, None, headers=headers)
        return Response(200, payload_fn(state), headers=headers)

    def _add_admin(self, method: str, pattern: str, handler) -> None:
        """Register a route under the ``/v1`` prefix as uncacheable.

        The metrics scrape and the admin namespace are live operational
        state: every response (success or error Response alike) carries
        ``Cache-Control: no-store`` unless the handler set its own.
        """
        self._router.add(method, API_PREFIX + pattern, _no_store(handler))

    def _install_routes(self) -> None:
        self._add("GET", "/apps/{app}/state", self._get_state)
        self._add("GET", "/apps/{app}/solar", self._get_solar)
        self._add("GET", "/apps/{app}/grid", self._get_grid)
        self._add("GET", "/apps/{app}/carbon", self._get_carbon)
        self._add("GET", "/apps/{app}/price", self._get_price)
        self._add("GET", "/apps/{app}/cost", self._get_cost)
        self._add("GET", "/apps/{app}/battery", self._get_battery)
        self._add("POST", "/apps/{app}/battery/charge_rate", self._set_charge_rate)
        self._add("POST", "/apps/{app}/battery/max_discharge", self._set_max_discharge)
        self._add("GET", "/apps/{app}/containers", self._list_containers)
        self._add("POST", "/apps/{app}/containers", self._launch_container)
        self._add("DELETE", "/apps/{app}/containers/{cid}", self._stop_container)
        self._add("GET", "/apps/{app}/containers/{cid}/power", self._container_power)
        self._add("GET", "/apps/{app}/containers/{cid}/powercap", self._get_powercap)
        self._add("POST", "/apps/{app}/containers/{cid}/powercap", self._set_powercap)
        self._add("POST", "/apps/{app}/containers/{cid}/cores", self._set_cores)
        self._add("POST", "/apps/{app}/scale", self._scale)
        self._add("GET", "/apps/{app}/events", self._app_events)
        # The push twin of the cursor feed: the async gateway serves it
        # over SSE; in-process the stub answers 501 pointing at
        # `repro serve`.
        self._add_admin("GET", "/apps/{app}/events/stream", self._app_events_stream)
        # Observability surface.
        self._add_admin("GET", "/metrics", self._get_metrics)
        self._add_admin("GET", "/metrics/ticks", self._get_metrics_ticks)
        self._add_admin("GET", "/admin/apps", self._admin_list_apps)
        self._add_admin("POST", "/admin/apps", self._admin_admit_app)
        self._add_admin("GET", "/admin/apps/{app}", self._admin_get_app)
        self._add_admin("PATCH", "/admin/apps/{app}", self._admin_set_share)
        self._add_admin("DELETE", "/admin/apps/{app}", self._admin_evict_app)

    # Snapshot route: the whole Table 1 observation surface in one call.
    def _get_state(self, request: Request):
        return self._snapshot_response(request, lambda state: state.to_dict())

    def _get_solar(self, request: Request):
        return self._snapshot_response(
            request, lambda state: {"solar_w": state.solar_power_w}
        )

    def _get_grid(self, request: Request):
        return self._snapshot_response(
            request, lambda state: {"grid_w": state.grid_power_w}
        )

    def _get_carbon(self, request: Request):
        return self._snapshot_response(
            request,
            lambda state: {"carbon_g_per_kwh": state.grid_carbon_g_per_kwh},
        )

    def _get_price(self, request: Request):
        return self._snapshot_response(
            request,
            lambda state: {"price_usd_per_kwh": state.grid_price_usd_per_kwh},
        )

    def _get_cost(self, request: Request):
        return self._snapshot_response(
            request, lambda state: {"cost_usd": state.total_cost_usd}
        )

    def _get_battery(self, request: Request):
        return self._snapshot_response(
            request,
            lambda state: {
                "battery": state.battery.to_dict() if state.battery else None,
                # Zero-default figures for battery-less apps; the SDK's
                # battery getters read these.
                "charge_level_wh": state.battery_charge_level_wh,
                "capacity_wh": state.battery_capacity_wh,
                "discharge_rate_w": state.battery_discharge_rate_w,
            },
        )

    def _set_charge_rate(self, request: Request):
        api = self._api(request.params["app"])
        api.set_battery_charge_rate(_body_field(request, "watts", float))
        return {"ok": True}

    def _set_max_discharge(self, request: Request):
        api = self._api(request.params["app"])
        api.set_battery_max_discharge(_body_field(request, "watts", float))
        return {"ok": True}

    def _list_containers(self, request: Request):
        api = self._api(request.params["app"])
        return {
            "containers": [
                {
                    "id": c.id,
                    "cores": c.cores,
                    "role": c.role,
                    "power_cap_w": c.power_cap_w,
                }
                for c in api.list_containers()
            ]
        }

    def _launch_container(self, request: Request):
        api = self._api(request.params["app"])
        container = api.launch_container(
            _body_field(request, "cores", float, default=1.0),
            gpu=bool(request.body.get("gpu", False)),
            role=str(request.body.get("role", "worker")),
        )
        return {"id": container.id, "cores": container.cores, "role": container.role}

    def _stop_container(self, request: Request):
        api = self._api(request.params["app"])
        api.stop_container(request.params["cid"])
        return {"ok": True}

    def _container_power(self, request: Request):
        api = self._api(request.params["app"])
        return {"power_w": api.get_container_power(request.params["cid"])}

    def _get_powercap(self, request: Request):
        api = self._api(request.params["app"])
        return {"powercap_w": api.get_container_powercap(request.params["cid"])}

    def _set_powercap(self, request: Request):
        api = self._api(request.params["app"])
        watts = request.body.get("watts")
        api.set_container_powercap(
            request.params["cid"],
            None if watts is None else _body_field(request, "watts", float),
        )
        return {"ok": True}

    def _set_cores(self, request: Request):
        api = self._api(request.params["app"])
        api.set_container_cores(
            request.params["cid"], _body_field(request, "cores", float)
        )
        return {"ok": True}

    def _scale(self, request: Request):
        api = self._api(request.params["app"])
        containers = api.scale_to(
            _body_field(request, "count", int),
            _body_field(request, "cores", float, default=1.0),
            gpu=bool(request.body.get("gpu", False)),
            role=str(request.body.get("role", "worker")),
        )
        return {"containers": [c.id for c in containers]}

    # ------------------------------------------------------------------
    # Event feed (control plane v1.1)
    # ------------------------------------------------------------------
    def _app_events(self, request: Request):
        cursor = _query_field(request, "cursor", int, default=0)
        limit = _query_field(request, "limit", int, default=None)
        page = self._ecovisor.events_for(
            request.params["app"], cursor=cursor, limit=limit
        )
        return {
            "app_name": page.app_name,
            "events": [event_to_dict(event) for event in page.events],
            "next_cursor": page.next_cursor,
            "dropped": page.dropped,
            # Feed-lifetime retention losses (as opposed to `dropped`,
            # this caller's cursor lag on this read).
            "journal_dropped": page.journal_dropped,
        }

    def _app_events_stream(self, request: Request):
        """Sync stub of the SSE stream route (served by the gateway).

        Kept on the in-process router so the route table (and `repro
        routes`) covers the full surface; validates the application so
        unknown apps answer 404 like every other app route.
        """
        self._ecovisor.events_for(request.params["app"], cursor=0, limit=0)
        return Response(
            501,
            {
                "error": "event streaming requires the async gateway; "
                "start one with `repro serve` and connect with "
                "Accept: text/event-stream"
            },
        )

    # ------------------------------------------------------------------
    # Observability surface (obs/)
    # ------------------------------------------------------------------
    def _get_metrics(self, request: Request):
        """The ecovisor's registry in Prometheus text exposition format."""
        return Response(
            200,
            self._ecovisor.metrics.render(),
            headers={"Content-Type": "text/plain; version=0.0.4; charset=utf-8"},
        )

    def _get_metrics_ticks(self, request: Request):
        """The tick profiler's ring buffer (``?last=N`` most recent)."""
        last = _query_field(request, "last", int, default=None)
        if last is not None and last < 0:
            raise ValueError(f"last must be >= 0, got {last}")
        profiler = self._ecovisor.profiler
        if profiler is None:
            return {
                "enabled": False,
                "phases": [],
                "ring_size": 0,
                "ticks_recorded": 0,
                "returned": 0,
                "ticks": [],
                "slow_ticks_total": 0,
            }
        return profiler.ticks_payload(last=last)

    # ------------------------------------------------------------------
    # Admin namespace: dynamic application lifecycle
    # ------------------------------------------------------------------
    def _share_body(
        self, request: Request, current: Optional[ShareConfig]
    ) -> ShareConfig:
        """A ShareConfig from body fields, defaulting to ``current``'s."""
        base = current or ShareConfig()
        return ShareConfig(
            solar_fraction=_body_field(
                request, "solar_fraction", float, default=base.solar_fraction
            ),
            battery_fraction=_body_field(
                request, "battery_fraction", float, default=base.battery_fraction
            ),
            grid_power_w=_body_field(
                request, "grid_power_w", float, default=base.grid_power_w
            ),
        )

    def _admin_list_apps(self, request: Request):
        return {
            "apps": [
                {"name": name, **_share_to_dict(share)}
                for name, share in self._ecovisor.app_shares().items()
            ]
        }

    def _admin_get_app(self, request: Request):
        name = request.params["app"]
        share = self._ecovisor.share_for(name)
        pending = self._ecovisor.pending_share(name)
        return {
            "name": name,
            **_share_to_dict(share),
            "pending_share": _share_to_dict(pending) if pending else None,
        }

    def _admin_admit_app(self, request: Request):
        name = str(_body_field(request, "name", str))
        share = self._share_body(request, current=None)
        self._ecovisor.admit_app(name, share)
        return Response(201, {"name": name, **_share_to_dict(share)})

    def _admin_set_share(self, request: Request):
        name = request.params["app"]
        # Partial fields default from the *staged* share when one is
        # pending, so two PATCHes between tick boundaries compose
        # instead of the second silently reverting the first.
        current = self._ecovisor.pending_share(name) or self._ecovisor.share_for(
            name
        )
        share = self._share_body(request, current=current)
        self._ecovisor.set_share(name, share)
        return {
            "name": name,
            **_share_to_dict(share),
            # Rebalances take effect at the next tick boundary.
            "effective_at_tick": self._ecovisor.next_tick_index,
        }

    def _admin_evict_app(self, request: Request):
        name = request.params["app"]
        account = self._ecovisor.evict_app(name)
        return {"name": name, "account": _account_to_dict(account)}


def _no_store(handler):
    """Wrap a handler so its responses carry ``Cache-Control: no-store``.

    A handler that set its own ``Cache-Control`` wins; plain-dict
    returns are lifted into a 200 :class:`Response` to carry the header.
    """

    @functools.wraps(handler)
    def wrapped(request: Request):
        result = handler(request)
        if isinstance(result, Response):
            if result.header("Cache-Control") is not None:
                return result
            headers = dict(result.headers)
            headers["Cache-Control"] = NO_STORE_CACHE_CONTROL
            return Response(result.status, result.body, headers)
        return Response(
            200, result, {"Cache-Control": NO_STORE_CACHE_CONTROL}
        )

    return wrapped


def _share_to_dict(share: ShareConfig) -> Dict[str, float]:
    return {
        "solar_fraction": share.solar_fraction,
        "battery_fraction": share.battery_fraction,
        "grid_power_w": share.grid_power_w,
    }


def _account_to_dict(account: AppAccount) -> Dict[str, Any]:
    """JSON form of a (finalized) ledger account."""
    return {
        "app_name": account.app_name,
        "energy_wh": account.energy_wh,
        "solar_wh": account.solar_wh,
        "battery_wh": account.battery_wh,
        "grid_wh": account.grid_wh,
        "carbon_g": account.carbon_g,
        "cost_usd": account.cost_usd,
        "curtailed_wh": account.curtailed_wh,
        "unmet_wh": account.unmet_wh,
        "finalized": account.finalized,
        "settlements": len(account.settlements),
    }
