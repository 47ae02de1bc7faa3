"""REST router and the ecovisor's REST surface."""

import pytest

from repro.core.config import ShareConfig
from repro.market.prices import constant_price_trace
from repro.rest.router import UNMATCHED_ROUTE_LABEL, Router
from repro.rest.server import API_PREFIX, SSE_ROUTES, EcovisorRestServer
from tests.conftest import make_ecovisor, run_ticks


class TestRouter:
    def test_dispatch_with_params(self):
        router = Router()
        router.add("GET", "/items/{item}", lambda req: {"got": req.params["item"]})
        response = router.dispatch("GET", "/items/42")
        assert response.ok
        assert response.body == {"got": "42"}

    def test_method_mismatch_is_405_with_allow(self):
        router = Router()
        router.add("GET", "/x", lambda req: {})
        router.add("DELETE", "/x", lambda req: {})
        response = router.dispatch("POST", "/x")
        assert response.status == 405
        assert response.headers["Allow"] == "DELETE, GET"
        assert "not allowed" in response.body["error"]

    def test_unknown_path_is_404(self):
        assert Router().dispatch("GET", "/nope").status == 404

    def test_method_match_beats_405(self):
        router = Router()
        router.add("GET", "/x", lambda req: {"ok": True})
        router.add("POST", "/x", lambda req: {"posted": True})
        assert router.dispatch("GET", "/x").body == {"ok": True}
        assert router.dispatch("POST", "/x").body == {"posted": True}

    def test_query_string_parsed(self):
        router = Router()
        router.add("GET", "/feed", lambda req: {"cursor": req.query.get("cursor")})
        response = router.dispatch("GET", "/feed?cursor=7")
        assert response.ok
        assert response.body == {"cursor": "7"}

    def test_route_table_names_backing_calls(self):
        router = Router()

        def _get_state(req):
            return {}

        router.add("GET", "/v1/apps/{app}/state", _get_state)
        assert router.route_table() == [("GET", "/v1/apps/{app}/state", "get_state")]

    def test_value_error_maps_to_400(self):
        router = Router()

        def bad(req):
            raise ValueError("bad input")

        router.add("GET", "/x", bad)
        assert router.dispatch("GET", "/x").status == 400

    def test_routes_listing(self):
        router = Router()
        router.add("GET", "/a", lambda r: {})
        router.add("POST", "/b", lambda r: {})
        assert ("GET", "/a") in router.routes()
        assert ("POST", "/b") in router.routes()


@pytest.fixture
def server():
    eco = make_ecovisor(solar_w=10.0, carbon_g_per_kwh=250.0)
    eco.admit_app("a", ShareConfig(solar_fraction=0.5, battery_fraction=0.5))
    eco.admit_app("b", ShareConfig(solar_fraction=0.5, battery_fraction=0.5))
    run_ticks(eco, 1)
    return EcovisorRestServer(eco)


@pytest.fixture
def market_server():
    """A server over an ecovisor with the market layer attached."""
    eco = make_ecovisor(
        solar_w=0.0,
        carbon_g_per_kwh=250.0,
        price_trace=constant_price_trace(0.55),
    )
    eco.admit_app("a", ShareConfig())
    container = eco.launch_container("a", 1)
    run_ticks(eco, 3, lambda tick: container.set_demand_utilization(1.0))
    return EcovisorRestServer(eco)


class TestMonitoringRoutes:
    def test_carbon(self, server):
        response = server.request("GET", "/v1/apps/a/carbon")
        assert response.ok
        assert response.body["carbon_g_per_kwh"] == pytest.approx(250.0)

    def test_price(self, market_server):
        response = market_server.request("GET", "/v1/apps/a/price")
        assert response.ok
        assert response.body["price_usd_per_kwh"] == pytest.approx(0.55)

    def test_price_without_market_is_zero(self, server):
        response = server.request("GET", "/v1/apps/a/price")
        assert response.ok
        assert response.body["price_usd_per_kwh"] == 0.0

    def test_cost(self, market_server):
        response = market_server.request("GET", "/v1/apps/a/cost")
        assert response.ok
        assert response.body["cost_usd"] > 0.0

    def test_cost_without_market_is_zero(self, server):
        response = server.request("GET", "/v1/apps/a/cost")
        assert response.ok
        assert response.body["cost_usd"] == 0.0

    def test_solar(self, server):
        response = server.request("GET", "/v1/apps/a/solar")
        assert response.body["solar_w"] == pytest.approx(5.0)

    def test_battery(self, server):
        response = server.request("GET", "/v1/apps/a/battery")
        assert response.body["charge_level_wh"] > 0
        assert response.body["capacity_wh"] > 0

    def test_unknown_app_is_404(self, server):
        assert server.request("GET", "/v1/apps/ghost/solar").status == 404


class TestContainerRoutes:
    def test_launch_list_stop(self, server):
        launched = server.request("POST", "/v1/apps/a/containers", {"cores": 2})
        assert launched.ok
        cid = launched.body["id"]
        listing = server.request("GET", "/v1/apps/a/containers")
        assert [c["id"] for c in listing.body["containers"]] == [cid]
        assert server.request("DELETE", f"/v1/apps/a/containers/{cid}").ok
        listing = server.request("GET", "/v1/apps/a/containers")
        assert listing.body["containers"] == []

    def test_powercap_roundtrip(self, server):
        cid = server.request("POST", "/v1/apps/a/containers", {"cores": 1}).body["id"]
        assert server.request(
            "POST", f"/v1/apps/a/containers/{cid}/powercap", {"watts": 1.1}
        ).ok
        got = server.request("GET", f"/v1/apps/a/containers/{cid}/powercap")
        assert got.body["powercap_w"] == pytest.approx(1.1)

    def test_cross_app_access_is_403(self, server):
        cid = server.request("POST", "/v1/apps/a/containers", {"cores": 1}).body["id"]
        response = server.request(
            "POST", f"/v1/apps/b/containers/{cid}/powercap", {"watts": 1.0}
        )
        assert response.status == 403

    def test_scale_route(self, server):
        response = server.request("POST", "/v1/apps/a/scale", {"count": 3, "cores": 1})
        assert response.ok
        assert len(response.body["containers"]) == 3

    def test_container_power_route(self, server):
        cid = server.request("POST", "/v1/apps/a/containers", {"cores": 1}).body["id"]
        response = server.request("GET", f"/v1/apps/a/containers/{cid}/power")
        assert response.ok
        assert response.body["power_w"] >= 0.0


class TestErrorPaths:
    """Failure responses: unknown routes, malformed bodies, bad names."""

    def test_unknown_route_is_404(self, server):
        response = server.request("GET", "/nope")
        assert response.status == 404
        assert "no route" in response.body["error"]

    def test_unknown_method_on_known_path_is_405(self, server):
        response = server.request("PATCH", "/v1/apps/a/solar")
        assert response.status == 405
        assert response.headers["Allow"] == "GET"

    def test_unknown_app_on_every_monitoring_route(self, server):
        for path in ("solar", "grid", "carbon", "price", "cost", "battery"):
            response = server.request("GET", f"/v1/apps/ghost/{path}")
            assert response.status == 404, path
            assert "ghost" in response.body["error"]

    def test_unknown_container_is_404(self, server):
        response = server.request("GET", "/v1/apps/a/containers/nope/power")
        assert response.status == 404
        assert "nope" in response.body["error"]

    def test_scale_with_missing_count_is_400(self, server):
        response = server.request("POST", "/v1/apps/a/scale", {})
        assert response.status == 400
        assert "count" in response.body["error"]

    def test_scale_with_non_numeric_count_is_400(self, server):
        response = server.request("POST", "/v1/apps/a/scale", {"count": "lots"})
        assert response.status == 400

    def test_charge_rate_with_missing_watts_is_400(self, server):
        response = server.request("POST", "/v1/apps/a/battery/charge_rate", {})
        assert response.status == 400
        assert "watts" in response.body["error"]

    def test_charge_rate_with_non_numeric_watts_is_400(self, server):
        response = server.request(
            "POST", "/v1/apps/a/battery/charge_rate", {"watts": "fast"}
        )
        assert response.status == 400

    def test_launch_with_non_numeric_cores_is_400(self, server):
        response = server.request("POST", "/v1/apps/a/containers", {"cores": None})
        assert response.status == 400

    def test_powercap_with_non_numeric_watts_is_400(self, server):
        cid = server.request("POST", "/v1/apps/a/containers", {"cores": 1}).body["id"]
        response = server.request(
            "POST", f"/v1/apps/a/containers/{cid}/powercap", {"watts": "low"}
        )
        assert response.status == 400


class TestBatteryRoutes:
    def test_set_charge_rate(self, server):
        assert server.request(
            "POST", "/v1/apps/a/battery/charge_rate", {"watts": 5.0}
        ).ok

    def test_set_max_discharge(self, server):
        assert server.request(
            "POST", "/v1/apps/a/battery/max_discharge", {"watts": 8.0}
        ).ok

    def test_negative_rate_is_400(self, server):
        response = server.request(
            "POST", "/v1/apps/a/battery/charge_rate", {"watts": -5.0}
        )
        assert response.status == 400


class TestV1OnlyRouteTable:
    """Every route lives under /v1; an unversioned path matches nothing."""

    def test_every_route_is_under_v1(self, server):
        assert all(
            pattern.startswith(API_PREFIX + "/")
            for _, pattern in server.router.routes()
        )

    def test_unversioned_path_is_404_counted_as_unmatched(self):
        eco = make_ecovisor()
        eco.admit_app("a", ShareConfig())
        server = EcovisorRestServer(eco)
        assert server.request("GET", "/apps/a/solar").status == 404
        requests = eco.metrics.get("http_requests_total")
        assert requests.labels(route=UNMATCHED_ROUTE_LABEL, status="404").value == 1


class TestStateRoute:
    """GET /v1/apps/{app}/state: the whole observation in one round-trip."""

    def test_state_snapshot_fields(self, server):
        response = server.request("GET", "/v1/apps/a/state")
        assert response.ok
        body = response.body
        assert body["app_name"] == "a"
        assert body["solar_power_w"] == pytest.approx(5.0)
        assert body["grid_carbon_g_per_kwh"] == pytest.approx(250.0)
        assert body["has_market"] is False
        assert body["settled"] is True
        assert body["battery"]["charge_level_wh"] > 0
        assert body["container_power_w"] == {}

    def test_state_matches_field_routes(self, market_server):
        state = market_server.request("GET", "/v1/apps/a/state").body
        assert state["grid_price_usd_per_kwh"] == pytest.approx(
            market_server.request("GET", "/v1/apps/a/price").body[
                "price_usd_per_kwh"
            ]
        )
        assert state["total_cost_usd"] == pytest.approx(
            market_server.request("GET", "/v1/apps/a/cost").body["cost_usd"]
        )
        assert state["total_cost_usd"] > 0.0

    def test_state_battery_null_without_share(self, market_server):
        state = market_server.request("GET", "/v1/apps/a/state").body
        assert state["battery"] is None

    def test_state_container_powers(self, market_server):
        state = market_server.request("GET", "/v1/apps/a/state").body
        assert len(state["container_power_w"]) == 1
        assert all(p > 0 for p in state["container_power_w"].values())

    def test_state_unknown_app_is_404(self, server):
        assert server.request("GET", "/v1/apps/ghost/state").status == 404

    def test_battery_route_carries_null_and_zero_defaults(self, market_server):
        body = market_server.request("GET", "/v1/apps/a/battery").body
        assert body["battery"] is None
        assert body["charge_level_wh"] == 0.0
        assert body["capacity_wh"] == 0.0
        assert body["discharge_rate_w"] == 0.0


class TestContainerCoresRoute:
    def test_set_cores(self, server):
        cid = server.request("POST", "/v1/apps/a/containers", {"cores": 1}).body["id"]
        assert server.request(
            "POST", f"/v1/apps/a/containers/{cid}/cores", {"cores": 2}
        ).ok
        listing = server.request("GET", "/v1/apps/a/containers").body
        assert listing["containers"][0]["cores"] == 2.0

    def test_missing_cores_is_400(self, server):
        cid = server.request("POST", "/v1/apps/a/containers", {"cores": 1}).body["id"]
        response = server.request("POST", f"/v1/apps/a/containers/{cid}/cores", {})
        assert response.status == 400


class TestAdminNamespace:
    """POST/PATCH/DELETE /v1/admin/apps[...]: the dynamic lifecycle."""

    def test_list_apps_with_shares(self, server):
        body = server.request("GET", "/v1/admin/apps").body
        assert [entry["name"] for entry in body["apps"]] == ["a", "b"]
        assert body["apps"][0]["solar_fraction"] == 0.5

    def test_admit_app(self, server):
        response = server.request(
            "POST", "/v1/admin/apps", {"name": "c", "solar_fraction": 0.0}
        )
        assert response.status == 201
        assert response.body["name"] == "c"
        # The new tenant is immediately servable on the app surface.
        assert server.request("GET", "/v1/apps/c/state").ok

    def test_admit_requires_name(self, server):
        assert server.request("POST", "/v1/admin/apps", {}).status == 400

    def test_admit_duplicate_is_400(self, server):
        response = server.request("POST", "/v1/admin/apps", {"name": "a"})
        assert response.status == 400
        assert "already registered" in response.body["error"]

    def test_admit_oversubscription_is_400(self, server):
        response = server.request(
            "POST", "/v1/admin/apps", {"name": "c", "solar_fraction": 0.5}
        )
        assert response.status == 400
        assert "oversubscribed" in response.body["error"]

    def test_get_app_share_and_pending(self, server):
        server.request("PATCH", "/v1/admin/apps/a", {"solar_fraction": 0.25})
        body = server.request("GET", "/v1/admin/apps/a").body
        assert body["solar_fraction"] == 0.5  # still effective
        assert body["pending_share"]["solar_fraction"] == 0.25

    def test_patch_reports_effective_tick(self, server):
        response = server.request(
            "PATCH", "/v1/admin/apps/a", {"solar_fraction": 0.25}
        )
        assert response.ok
        assert response.body["effective_at_tick"] == 1  # one tick ran

    def test_patch_partial_fields_keep_current(self, server):
        response = server.request(
            "PATCH", "/v1/admin/apps/a", {"solar_fraction": 0.25}
        )
        assert response.body["battery_fraction"] == 0.5  # untouched

    def test_two_patches_between_boundaries_compose(self, server):
        server.request("PATCH", "/v1/admin/apps/a", {"solar_fraction": 0.25})
        response = server.request(
            "PATCH", "/v1/admin/apps/a", {"battery_fraction": 0.3}
        )
        # The second PATCH defaults from the *staged* share: the first
        # rebalance must not silently revert.
        assert response.body["solar_fraction"] == 0.25
        assert response.body["battery_fraction"] == 0.3
        pending = server.request("GET", "/v1/admin/apps/a").body["pending_share"]
        assert pending == {
            "solar_fraction": 0.25,
            "battery_fraction": 0.3,
            "grid_power_w": float("inf"),
        }

    def test_patch_oversubscription_is_400(self, server):
        response = server.request(
            "PATCH", "/v1/admin/apps/a", {"solar_fraction": 0.6}
        )
        assert response.status == 400

    def test_delete_evicts_and_returns_finalized_account(self, server):
        cid = server.request("POST", "/v1/apps/a/containers", {"cores": 1}).body["id"]
        response = server.request("DELETE", "/v1/admin/apps/a")
        assert response.ok
        account = response.body["account"]
        assert account["app_name"] == "a"
        assert account["finalized"] is True
        # App and container are gone from the app surface.
        assert server.request("GET", "/v1/apps/a/state").status == 404
        assert (
            server.request("GET", f"/v1/apps/b/containers/{cid}/power").status == 404
        )

    def test_readmission_after_eviction_binds_fresh_ves(self, server):
        server.request("DELETE", "/v1/admin/apps/a")
        assert server.request(
            "POST", "/v1/admin/apps", {"name": "a", "battery_fraction": 0.25}
        ).status == 201
        body = server.request("GET", "/v1/apps/a/battery").body
        assert body["battery"] is not None

    def test_in_process_eviction_invalidates_cached_api(self, server):
        # Prime the server's per-app API cache, then evict through the
        # ecovisor directly (the engine/churn path, not the admin
        # route): a re-admission must still bind the fresh VES.
        assert server.request("GET", "/v1/apps/a/state").ok
        server._ecovisor.evict_app("a")
        server._ecovisor.admit_app("a", ShareConfig())  # no battery now
        body = server.request("GET", "/v1/apps/a/battery").body
        assert body["battery"] is None

    def test_patch_before_first_tick_reports_tick_zero(self):
        eco = make_ecovisor()
        eco.admit_app("x", ShareConfig(solar_fraction=0.5))
        fresh = EcovisorRestServer(eco)  # no tick has run yet
        response = fresh.request(
            "PATCH", "/v1/admin/apps/x", {"solar_fraction": 0.25}
        )
        assert response.body["effective_at_tick"] == 0

    def test_admin_unknown_app_is_404(self, server):
        assert server.request("DELETE", "/v1/admin/apps/ghost").status == 404
        assert server.request("GET", "/v1/admin/apps/ghost").status == 404
        assert server.request("PATCH", "/v1/admin/apps/ghost", {}).status == 404


class TestEventFeedRoute:
    """GET /v1/apps/{app}/events?cursor=N: the cursor-paged journal."""

    def test_feed_starts_with_admission(self, server):
        body = server.request("GET", "/v1/apps/a/events").body
        assert body["app_name"] == "a"
        assert body["events"][0]["type"] == "AppAdmittedEvent"
        assert body["dropped"] == 0

    def test_cursor_pages_through_the_feed(self, server):
        first = server.request("GET", "/v1/apps/a/events?cursor=0").body
        assert first["next_cursor"] >= 1
        again = server.request(
            "GET", f"/v1/apps/a/events?cursor={first['next_cursor']}"
        ).body
        assert again["events"] == []
        assert again["next_cursor"] == first["next_cursor"]

    def test_limit_parameter(self, server):
        body = server.request("GET", "/v1/apps/a/events?limit=1").body
        assert len(body["events"]) == 1

    def test_feed_readable_after_eviction(self, server):
        server.request("DELETE", "/v1/admin/apps/a")
        body = server.request("GET", "/v1/apps/a/events").body
        assert body["events"][-1]["type"] == "AppEvictedEvent"

    def test_malformed_cursor_is_400(self, server):
        assert server.request("GET", "/v1/apps/a/events?cursor=soon").status == 400

    def test_negative_limit_is_400(self, server):
        assert server.request("GET", "/v1/apps/a/events?limit=-1").status == 400

    def test_unknown_app_is_404(self, server):
        assert server.request("GET", "/v1/apps/ghost/events").status == 404


class TestHeaderCaseInsensitivity:
    """HTTP header names carry no case (satellite regression tests)."""

    def test_response_header_lookup_ignores_case(self):
        from repro.rest.router import Response

        response = Response(200, None, headers={"etag": '"a:1:0"'})
        assert response.etag == '"a:1:0"'
        assert response.header("ETAG") == '"a:1:0"'
        assert response.header("ETag") == '"a:1:0"'

    def test_request_header_lookup_ignores_case(self):
        from repro.rest.router import Request

        request = Request("GET", "/x", headers={"IF-NONE-MATCH": '"e"'})
        assert request.header("if-none-match") == '"e"'
        assert request.header("If-None-Match") == '"e"'
        assert request.header("absent") is None
        assert request.header("absent", "d") == "d"

    def test_conditional_get_with_lowercase_header_name(self, server):
        etag = server.request("GET", "/v1/apps/a/state").header("etag")
        assert etag is not None
        response = server.request(
            "GET", "/v1/apps/a/state", headers={"if-none-match": etag}
        )
        assert response.status == 304


class TestConditionalGet:
    """ETag / If-None-Match on snapshot routes."""

    SNAPSHOT_PATHS = (
        "/v1/apps/a/state",
        "/v1/apps/a/solar",
        "/v1/apps/a/grid",
        "/v1/apps/a/carbon",
        "/v1/apps/a/price",
        "/v1/apps/a/cost",
        "/v1/apps/a/battery",
    )

    @pytest.mark.parametrize("path", SNAPSHOT_PATHS)
    def test_snapshot_routes_carry_etag_and_revalidation(self, server, path):
        response = server.request("GET", path)
        assert response.ok
        assert response.etag.startswith('"a:')
        assert response.headers["Cache-Control"] == "max-age=0, must-revalidate"

    def test_if_none_match_hit_is_304_without_body(self, server):
        first = server.request("GET", "/v1/apps/a/state")
        response = server.request(
            "GET", "/v1/apps/a/state", headers={"If-None-Match": first.etag}
        )
        assert response.status == 304
        assert response.body is None
        assert response.etag == first.etag

    def test_if_none_match_miss_returns_fresh_body(self, server):
        response = server.request(
            "GET", "/v1/apps/a/state", headers={"If-None-Match": '"stale"'}
        )
        assert response.ok
        assert response.body["app_name"] == "a"

    def test_wildcard_and_candidate_lists_match(self, server):
        etag = server.request("GET", "/v1/apps/a/state").etag
        for header in ("*", f'"zzz", {etag}', f"W/{etag}"):
            response = server.request(
                "GET", "/v1/apps/a/state", headers={"If-None-Match": header}
            )
            assert response.status == 304, header

    def test_etag_changes_at_the_tick_boundary(self):
        eco = make_ecovisor()
        eco.admit_app("a", ShareConfig())
        clock = run_ticks(eco, 1)
        server = EcovisorRestServer(eco)
        etag = server.request("GET", "/v1/apps/a/state").etag
        run_ticks(eco, 1, clock=clock)
        after = server.request(
            "GET", "/v1/apps/a/state", headers={"If-None-Match": etag}
        )
        assert after.ok  # not 304: new tick, new snapshot
        assert after.etag != etag

    def test_etag_distinguishes_settled_from_building(self):
        from repro.rest.server import snapshot_etag

        eco = make_ecovisor()
        eco.admit_app("a", ShareConfig())
        run_ticks(eco, 1)
        server = EcovisorRestServer(eco)
        settled = server.request("GET", "/v1/apps/a/state")
        assert settled.etag.endswith(':1"')
        # The helper keys on the settled flag, so a mid-tick snapshot
        # cannot revalidate against the finalized one.
        state = server._api("a").state()
        assert snapshot_etag(state) == settled.etag


class TestCacheControlNoStore:
    """Metrics and admin routes must never be cached."""

    def test_metrics_routes_are_no_store(self, server):
        for path in ("/v1/metrics", "/v1/metrics/ticks"):
            response = server.request("GET", path)
            assert response.ok, path
            assert response.header("Cache-Control") == "no-store", path

    def test_admin_routes_are_no_store(self, server):
        listing = server.request("GET", "/v1/admin/apps")
        assert listing.ok
        assert listing.header("Cache-Control") == "no-store"
        one = server.request("GET", "/v1/admin/apps/a")
        assert one.header("Cache-Control") == "no-store"
        admitted = server.request("POST", "/v1/admin/apps", {"name": "c"})
        assert admitted.status == 201
        assert admitted.header("Cache-Control") == "no-store"

    def test_admin_error_mapping_survives_no_store_wrap(self, server):
        # Error responses come from the Router's exception mapping with
        # no freshness headers at all (uncacheable by default); the
        # wrapper must not swallow the error or change its status.
        response = server.request("GET", "/v1/admin/apps/ghost")
        assert response.status == 404
        assert "unknown application" in response.body["error"]

    def test_route_table_backing_names_survive_no_store_wrap(self, server):
        backings = {
            backing
            for _, path, backing in server.router.route_table()
            if path.startswith(("/v1/admin", "/v1/metrics"))
        }
        assert "admin_admit_app" in backings
        assert "get_metrics" in backings


class TestStreamRouteStub:
    """The SSE route exists in-process as a 501 stub (gateway serves it)."""

    def test_stream_stub_is_501_with_hint(self, server):
        response = server.request("GET", "/v1/apps/a/events/stream")
        assert response.status == 501
        assert "repro serve" in response.body["error"]

    def test_stream_stub_unknown_app_is_404(self, server):
        response = server.request("GET", "/v1/apps/ghost/events/stream")
        assert response.status == 404

    def test_stream_route_is_marked_sse(self, server):
        assert ("GET", "/v1/apps/{app}/events/stream") in SSE_ROUTES
        assert ("GET", "/v1/apps/{app}/events/stream") in {
            (m, p) for m, p in server.router.routes()
        }
