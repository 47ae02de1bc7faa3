"""The async gateway over real sockets: caching, streaming, edge cases.

Every test boots a :class:`GatewayServer` on an ephemeral port over a
small deterministic fleet, drives ticks through the
:class:`TickDriver` (the single-writer path production uses), and talks
to it through the SDK's :class:`HttpTransport` — the full network stack,
no mocks.  Blocking SDK calls run in worker threads via
``asyncio.to_thread`` so they never stall the server's event loop.
"""

import asyncio
import json

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.client import EcovisorAdminClient, EcovisorClient, HttpTransport
from repro.core.errors import UnknownApplicationError
from repro.core.events import CarbonChangeEvent
from repro.gateway import GatewayConfig, GatewayServer, TickDriver
from repro.sim.fleet import build_fleet

FLEET_PARAMS = {"apps": 4, "mix": "balanced", "seed": 7, "ticks": 40}


def run(coro):
    return asyncio.run(coro)


async def start_gateway(queue_size: int = 256):
    env = build_fleet(FLEET_PARAMS)
    gateway = GatewayServer(
        env.ecovisor,
        config=GatewayConfig(port=0, queue_size=queue_size),
    )
    await gateway.start()
    driver = TickDriver(gateway, env.engine)
    app = sorted(env.ecovisor.app_shares())[0]
    return env, gateway, driver, app


def counter_value(ecovisor, name: str) -> float:
    return ecovisor.metrics.get(name).value


async def exchange(reader, writer, method, path, body=None, headers=None):
    """One request on a kept-alive connection; the raw response bytes."""
    payload = b"" if body is None else json.dumps(body).encode()
    head = f"{method} {path} HTTP/1.1\r\nHost: gw\r\n"
    for name, value in (headers or {}).items():
        head += f"{name}: {value}\r\n"
    if payload:
        head += f"Content-Length: {len(payload)}\r\n"
    writer.write(head.encode() + b"\r\n" + payload)
    await writer.drain()
    raw = await reader.readuntil(b"\r\n\r\n")
    length = 0
    for line in raw.split(b"\r\n"):
        name, _, value = line.partition(b":")
        if name.lower() == b"content-length":
            length = int(value)
    return raw + await reader.readexactly(length)


def response_etag(raw: bytes):
    """The ``ETag`` header of a raw response, or None."""
    for line in raw.split(b"\r\n\r\n")[0].split(b"\r\n"):
        name, _, value = line.partition(b":")
        if name.lower() == b"etag":
            return value.strip().decode()
    return None


class TestSnapshotCaching:
    def test_state_roundtrip_with_etag_and_304(self):
        async def scenario():
            env, gateway, driver, app = await start_gateway()
            await driver.step()
            transport = HttpTransport("127.0.0.1", gateway.port)
            try:
                first = await asyncio.to_thread(
                    transport.request, "GET", f"/v1/apps/{app}/state"
                )
                assert first.status == 200
                assert first.etag == f'"{app}:0:1"'
                assert first.header("Cache-Control") == "max-age=0, must-revalidate"
                assert first.body["app_name"] == app

                revalidated = await asyncio.to_thread(
                    transport.request,
                    "GET",
                    f"/v1/apps/{app}/state",
                    None,
                    {"If-None-Match": first.etag},
                )
                assert revalidated.status == 304
                assert revalidated.body is None
                assert revalidated.etag == first.etag
                assert counter_value(env.ecovisor, "gateway_etag_hits_total") == 1
            finally:
                transport.close()
                await gateway.stop()

        run(scenario())

    def test_etag_changes_after_a_tick(self):
        async def scenario():
            env, gateway, driver, app = await start_gateway()
            await driver.step()
            transport = HttpTransport("127.0.0.1", gateway.port)
            try:
                before = await asyncio.to_thread(
                    transport.request, "GET", f"/v1/apps/{app}/state"
                )
                await driver.step()
                after = await asyncio.to_thread(
                    transport.request,
                    "GET",
                    f"/v1/apps/{app}/state",
                    None,
                    {"If-None-Match": before.etag},
                )
                assert after.status == 200  # stale validator: full body
                assert after.etag != before.etag
                assert after.body["tick_index"] == 1
            finally:
                transport.close()
                await gateway.stop()

        run(scenario())

    def test_thousand_pollers_cost_one_dispatch_per_tick(self):
        async def scenario():
            env, gateway, driver, app = await start_gateway()
            await driver.step()
            requests = env.ecovisor.metrics.get("http_requests_total")
            state_route = requests.labels(
                route="/v1/apps/{app}/state", status="200"
            )
            transports = [
                HttpTransport("127.0.0.1", gateway.port) for _ in range(8)
            ]
            try:
                bodies = await asyncio.gather(*[
                    asyncio.to_thread(
                        t.request, "GET", f"/v1/apps/{app}/state"
                    )
                    for t in transports
                ])
                assert {json.dumps(b.body, sort_keys=True) for b in bodies} \
                    == {json.dumps(bodies[0].body, sort_keys=True)}
                # All eight concurrent pollers shared one dispatch.
                assert state_route.value == 1
            finally:
                for t in transports:
                    t.close()
                await gateway.stop()

        run(scenario())

    def test_mutation_invalidates_cached_snapshot(self):
        async def scenario():
            env, gateway, driver, app = await start_gateway()
            await driver.step()
            transport = HttpTransport("127.0.0.1", gateway.port)
            try:
                client = EcovisorClient(transport, app)
                admin = EcovisorAdminClient(transport)
                assert (await asyncio.to_thread(client.state)).app_name == app
                await asyncio.to_thread(admin.evict_app, app)
                with pytest.raises(UnknownApplicationError):
                    await asyncio.to_thread(client.state)
            finally:
                transport.close()
                await gateway.stop()

        run(scenario())


#: Tenant-scoped writes: (method, path suffix, body from a drawn value).
TENANT_WRITES = {
    "charge_rate": ("POST", "battery/charge_rate", lambda v: {"watts": v}),
    "max_discharge": ("POST", "battery/max_discharge", lambda v: {"watts": v}),
    "scale": ("POST", "scale", lambda v: {"count": int(v) % 3}),
    "launch": ("POST", "containers", lambda v: {"cores": 1.0}),
}

#: Tenants an operation may name, by index: the fleet's four and three
#: unregistered names, which a drawn admission may register.
TENANTS = (
    "fleet-0000",
    "fleet-0001",
    "fleet-0002",
    "fleet-0003",
    "ghost",
    "extra-0",
    "extra-1",
)

TENANT = st.integers(min_value=0, max_value=len(TENANTS) - 1)
CACHE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("tick")),
        st.tuples(
            st.just("write"),
            TENANT,
            st.sampled_from(sorted(TENANT_WRITES)),
            st.floats(min_value=0.0, max_value=40.0),
        ),
        st.tuples(
            st.just("admin"), TENANT, st.sampled_from(("share", "admit", "evict"))
        ),
        st.tuples(st.just("get"), TENANT, st.booleans()),
    ),
    min_size=1,
    max_size=30,
)


async def coherence_run(ops):
    """Apply ``ops`` to a live gateway; returns (op, served, fresh) triples.

    Each state GET's bytes, as served (from the cache or not), are
    paired with the bytes of the same GET dispatched fresh through the
    sync REST server on the writer right after it.
    """
    env, gateway, driver, _ = await start_gateway()
    reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
    etags = {}
    pairs = []
    try:
        for op in ops:
            kind = op[0]
            if kind == "tick":
                await driver.step()
                continue
            app = TENANTS[op[1]]
            if kind == "get":
                path = f"/v1/apps/{app}/state"
                headers = {}
                if op[2] and app in etags:
                    headers["If-None-Match"] = etags[app]
                served = await exchange(reader, writer, "GET", path, None, headers)
                fresh = await gateway.run_on_writer(
                    gateway.rest.request, "GET", path, None, headers
                )
                pairs.append((op, served, gateway._render(fresh)))
                etag = response_etag(served)
                if etag is not None:
                    etags[app] = etag
                continue
            if kind == "write":
                method, suffix, body = TENANT_WRITES[op[2]]
                path, payload = f"/v1/apps/{app}/{suffix}", body(op[3])
            elif op[2] == "admit":
                method, path = "POST", "/v1/admin/apps"
                payload = {"name": app, "grid_power_w": 100.0}
            elif op[2] == "evict":
                method, path, payload = "DELETE", f"/v1/admin/apps/{app}", None
            else:
                method, path = "PATCH", f"/v1/admin/apps/{app}"
                payload = {"grid_power_w": 10.0 + op[1]}
            await exchange(reader, writer, method, path, payload)
        return pairs
    finally:
        writer.close()
        await gateway.stop()


class TestCacheCoherence:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=CACHE_OPS)
    @example(
        ops=[
            # Before the first tick a snapshot is built on demand, so a
            # tenant's own writes change what its state route answers.
            ("get", 0, False),
            ("get", 1, False),
            ("write", 0, "scale", 2.0),
            ("get", 0, False),
            ("get", 1, False),  # another tenant's write keeps this entry
            ("write", 4, "max_discharge", 3.0),  # an unknown tenant
            ("get", 4, False),
            ("get", 0, True),
            ("tick",),
            ("get", 0, False),
            ("write", 0, "charge_rate", 12.0),
            ("get", 0, True),
            ("get", 2, False),
            ("admin", 1, "share"),
            ("get", 1, True),
            ("admin", 2, "evict"),  # an admin write drops every entry
            ("get", 2, False),
            # An admitted tenant has no snapshot until the next tick.
            ("admin", 5, "admit"),
            ("get", 5, False),
            ("write", 5, "launch", 0.0),
            ("get", 5, False),
            ("tick",),
            ("get", 5, True),
            ("get", 3, True),
        ]
    )
    def test_cached_bytes_equal_a_fresh_dispatch(self, ops):
        for op, served, fresh in run(coherence_run(ops)):
            assert served == fresh, op


class TestCacheCounters:
    def test_scrape_exports_hits_populates_and_drops(self):
        async def scenario():
            env, gateway, driver, app = await start_gateway()
            other = sorted(env.ecovisor.app_shares())[1]
            transport = HttpTransport("127.0.0.1", gateway.port)

            def get(name, etag=None):
                headers = {"If-None-Match": etag} if etag else None
                return asyncio.to_thread(
                    transport.request, "GET", f"/v1/apps/{name}/state", None, headers
                )

            try:
                await driver.step()
                first = await get(app)  # populate
                assert (await get(app, first.etag)).status == 304  # hit
                await get(other)  # populate
                for tenant, status in ((app, 200), ("ghost", 404)):
                    written = await asyncio.to_thread(
                        transport.request,
                        "POST",
                        f"/v1/apps/{tenant}/battery/charge_rate",
                        {"watts": 5.0},
                    )
                    assert written.status == status
                    await get(other)  # hit: another tenant's write
                await get(app)  # populate: its own write dropped it
                await driver.step()
                await get(app)  # populate
                scrape = await asyncio.to_thread(
                    transport.request, "GET", "/v1/metrics"
                )
            finally:
                transport.close()
                await gateway.stop()
            return scrape.body

        text = run(scenario())
        values = {}
        for line in text.splitlines():
            name, _, value = line.partition(" ")
            if name.startswith("gateway_snapshot_cache_"):
                values[name] = float(value)
        assert values == {
            "gateway_snapshot_cache_hits_total": 3.0,
            "gateway_snapshot_cache_populates_total": 4.0,
            "gateway_snapshot_cache_invalidations_total": 2.0,
            "gateway_snapshot_cache_tenant_invalidations_total": 2.0,
        }


class TestHttpSurface:
    def test_keep_alive_serves_many_requests_per_connection(self):
        async def scenario():
            env, gateway, driver, app = await start_gateway()
            await driver.step()
            transport = HttpTransport("127.0.0.1", gateway.port)
            try:
                client = EcovisorClient(transport, app)
                for _ in range(3):
                    state = await asyncio.to_thread(client.state)
                    assert state.app_name == app
                # One TCP connection handled all of it.
                assert counter_value(
                    env.ecovisor, "gateway_open_connections"
                ) == 1
            finally:
                transport.close()
                await gateway.stop()

        run(scenario())

    def test_unknown_app_maps_to_client_exception(self):
        async def scenario():
            env, gateway, driver, app = await start_gateway()
            await driver.step()
            transport = HttpTransport("127.0.0.1", gateway.port)
            try:
                ghost = EcovisorClient(transport, "ghost")
                with pytest.raises(UnknownApplicationError):
                    await asyncio.to_thread(ghost.state)
            finally:
                transport.close()
                await gateway.stop()

        run(scenario())

    def test_metrics_text_is_no_store(self):
        async def scenario():
            env, gateway, driver, app = await start_gateway()
            await driver.step()
            transport = HttpTransport("127.0.0.1", gateway.port)
            try:
                response = await asyncio.to_thread(
                    transport.request, "GET", "/v1/metrics"
                )
                assert response.status == 200
                assert response.header("Cache-Control") == "no-store"
                assert isinstance(response.body, str)
                assert "gateway_open_connections" in response.body
            finally:
                transport.close()
                await gateway.stop()

        run(scenario())

    def test_malformed_request_answers_400(self):
        async def scenario():
            env, gateway, driver, app = await start_gateway()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", gateway.port
            )
            writer.write(b"BOGUS\r\n\r\n")
            await writer.drain()
            status = await reader.readline()
            assert b"400" in status
            writer.close()
            await gateway.stop()

        run(scenario())


class TestSseStreaming:
    def test_stream_delivers_ticked_events(self):
        async def scenario():
            env, gateway, driver, app = await start_gateway()
            transport = HttpTransport("127.0.0.1", gateway.port)
            client = EcovisorClient(transport, app)
            frames = []

            def collect():
                for frame in client.stream_events(cursor=0, raw=True):
                    frames.append(frame)
                    if frame.event == "stream_end":
                        return

            collector = asyncio.ensure_future(asyncio.to_thread(collect))
            try:
                await asyncio.sleep(0.1)
                await driver.run(5)
                admin = EcovisorAdminClient(transport)
                await asyncio.to_thread(admin.evict_app, app)
                await asyncio.wait_for(collector, timeout=10)
            finally:
                transport.close()
                await gateway.stop()
            return frames

        frames = run(scenario())
        assert frames[0].event == "stream_open"
        journal_frames = [f for f in frames if f.id is not None]
        assert journal_frames[0].event == "AppAdmittedEvent"
        assert [f.id for f in journal_frames] == list(
            range(len(journal_frames))
        )
        assert frames[-2].event == "AppEvictedEvent"
        assert frames[-1].event == "stream_end"
        assert json.loads(frames[-1].data) == {"reason": "evicted"}

    def test_last_event_id_resume_skips_seen_events(self):
        async def scenario():
            env, gateway, driver, app = await start_gateway()
            transport = HttpTransport("127.0.0.1", gateway.port)
            try:
                # Deterministic feed: the admission event (id 0) plus
                # five injected carbon changes (ids 1-5).
                def inject():
                    journal = env.ecovisor.journal
                    for i in range(5):
                        journal.record(
                            app,
                            CarbonChangeEvent(
                                time_s=float(i),
                                previous_g_per_kwh=1.0,
                                current_g_per_kwh=2.0,
                            ),
                        )

                await gateway.run_on_writer(inject)
                client = EcovisorClient(transport, app)

                def first_pass_ids():
                    collected = []
                    for frame in client.stream_events(cursor=0, raw=True):
                        if frame.id is not None:
                            collected.append(frame.id)
                            if len(collected) >= 2:
                                return collected
                    return collected

                assert await asyncio.to_thread(first_pass_ids) == [0, 1]

                # Reconnect the way an SSE client does: Last-Event-ID.
                def resume_ids():
                    collected = []
                    stream = transport.stream(
                        f"/v1/apps/{app}/events/stream",
                        headers={"Last-Event-ID": "1"},
                    )
                    try:
                        for frame in stream:
                            if frame.event == "stream_open":
                                continue
                            collected.append(frame.id)
                            if len(collected) >= 2:
                                return collected
                    finally:
                        stream.close()
                    return collected

                assert await asyncio.to_thread(resume_ids) == [2, 3]
            finally:
                transport.close()
                await gateway.stop()

        run(scenario())

    def test_resume_past_horizon_restarts_from_oldest(self):
        async def scenario():
            env, gateway, driver, app = await start_gateway(queue_size=1024)
            transport = HttpTransport("127.0.0.1", gateway.port)
            try:
                await driver.step()

                def overflow():
                    journal = env.ecovisor.journal
                    for i in range(300):  # journal capacity is 256
                        journal.record(
                            app,
                            CarbonChangeEvent(
                                time_s=float(i),
                                previous_g_per_kwh=1.0,
                                current_g_per_kwh=2.0,
                            ),
                        )

                await gateway.run_on_writer(overflow)

                def take_three():
                    collected = []
                    stream = transport.stream(f"/v1/apps/{app}/events/stream")
                    try:
                        for frame in stream:
                            collected.append(frame)
                            if len(collected) >= 3:
                                return collected
                    finally:
                        stream.close()
                    return collected

                frames = await asyncio.to_thread(take_three)
                assert frames[0].event == "stream_open"
                assert frames[1].event == "journal_dropped"
                payload = json.loads(frames[1].data)
                assert payload["dropped"] > 0
                assert payload["journal_dropped"] > 0
                # The stream resumes at the oldest retained event.
                assert frames[2].id == payload["dropped"]
            finally:
                transport.close()
                await gateway.stop()

        run(scenario())

    def test_journal_overflow_mid_stream_surfaces_journal_dropped(self):
        async def scenario():
            env, gateway, driver, app = await start_gateway(queue_size=1024)
            transport = HttpTransport("127.0.0.1", gateway.port)
            client = EcovisorClient(transport, app)
            seen = []
            got_drop = asyncio.Event()
            loop = asyncio.get_running_loop()

            def collect():
                for frame in client.stream_events(cursor=0, raw=True):
                    seen.append(frame)
                    if frame.event == "journal_dropped":
                        loop.call_soon_threadsafe(got_drop.set)
                        return

            collector = asyncio.ensure_future(asyncio.to_thread(collect))
            try:
                await driver.step()
                await asyncio.sleep(0.1)

                def overflow():
                    journal = env.ecovisor.journal
                    for i in range(300):
                        journal.record(
                            app,
                            CarbonChangeEvent(
                                time_s=float(i),
                                previous_g_per_kwh=1.0,
                                current_g_per_kwh=2.0,
                            ),
                        )

                # Overflow the feed, then tick: the pump's next read has
                # lost events and must say so in-band.
                await gateway.run_on_writer(overflow)
                await driver.step()
                await asyncio.wait_for(got_drop.wait(), timeout=10)
                await asyncio.wait_for(collector, timeout=10)
            finally:
                transport.close()
                await gateway.stop()
            return seen

        seen = run(scenario())
        drop = [f for f in seen if f.event == "journal_dropped"]
        assert len(drop) == 1
        assert json.loads(drop[0].data)["dropped"] > 0

    def test_stream_for_unknown_app_is_404(self):
        async def scenario():
            env, gateway, driver, app = await start_gateway()
            transport = HttpTransport("127.0.0.1", gateway.port)
            try:
                def open_stream():
                    next(transport.stream("/v1/apps/ghost/events/stream"))

                with pytest.raises(ConnectionError) as excinfo:
                    await asyncio.to_thread(open_stream)
                assert "404" in str(excinfo.value)
            finally:
                transport.close()
                await gateway.stop()

        run(scenario())

    def test_sse_metrics_move(self):
        async def scenario():
            env, gateway, driver, app = await start_gateway()
            transport = HttpTransport("127.0.0.1", gateway.port)
            client = EcovisorClient(transport, app)
            frames = []

            def collect():
                for frame in client.stream_events(cursor=0, raw=True):
                    frames.append(frame)
                    if frame.event == "stream_end":
                        return

            collector = asyncio.ensure_future(asyncio.to_thread(collect))
            try:
                await asyncio.sleep(0.1)
                await driver.run(3)
                admin = EcovisorAdminClient(transport)
                await asyncio.to_thread(admin.evict_app, app)
                await asyncio.wait_for(collector, timeout=10)
                assert counter_value(
                    env.ecovisor, "gateway_sse_events_sent_total"
                ) >= len(frames)
                assert counter_value(
                    env.ecovisor, "gateway_sse_bytes_sent_total"
                ) >= sum(len(f.data) for f in frames)
                assert counter_value(
                    env.ecovisor, "gateway_sse_queue_dropped_total"
                ) == 0
            finally:
                transport.close()
                await gateway.stop()

        run(scenario())
