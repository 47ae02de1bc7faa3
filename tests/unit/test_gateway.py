"""Gateway building blocks: HTTP parsing, SSE framing, snapshot cache."""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import UnknownApplicationError
from repro.core.events import AppEvictedEvent, CarbonChangeEvent, event_to_dict
from repro.core.journal import EventJournal
from repro.gateway.cache import CacheEntry, SnapshotCache
from repro.gateway.http import (
    BadRequest,
    HttpRequest,
    json_response,
    read_request,
    render_response,
    split_target,
)
from repro.gateway.server import GatewayServer, _route_tenant
from repro.gateway.sse import (
    HEARTBEAT_FRAME,
    StreamBroker,
    StreamItem,
    Subscriber,
    format_sse_event,
)
from repro.sim.fleet import build_fleet


def run(coro):
    return asyncio.run(coro)


async def parse(data: bytes):
    # The StreamReader must be built inside a running loop.
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return await read_request(reader)


def carbon_event(i: int) -> CarbonChangeEvent:
    return CarbonChangeEvent(
        time_s=60.0 * i, previous_g_per_kwh=100.0, current_g_per_kwh=100.0 + i
    )


class JournalOnly:
    """The slice of the ecovisor the stream broker reads: the journal."""

    def __init__(self, capacity: int = 256):
        self.journal = EventJournal(capacity=capacity)

    def events_for(self, name, cursor=0, limit=None):
        return self.journal.read(name, cursor=cursor, limit=limit)


class TestHttpParsing:
    def test_parses_method_target_headers_and_body(self):
        raw = (
            b"POST /v1/apps/a/containers?x=1 HTTP/1.1\r\n"
            b"Host: localhost\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 13\r\n\r\n"
            b'{"cores": 2}\n'
        )
        request = run(parse(raw))
        assert request.method == "POST"
        assert request.target == "/v1/apps/a/containers?x=1"
        assert request.headers["host"] == "localhost"
        assert request.json_body() == {"cores": 2}
        assert request.keep_alive

    def test_header_names_fold_to_lowercase(self):
        raw = b"GET / HTTP/1.1\r\nIf-None-Match: \"a:1:1\"\r\n\r\n"
        request = run(parse(raw))
        assert request.headers["if-none-match"] == '"a:1:1"'

    def test_connection_close_disables_keep_alive(self):
        raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
        request = run(parse(raw))
        assert not request.keep_alive

    def test_clean_eof_returns_none(self):
        assert run(parse(b"")) is None

    def test_truncated_head_raises_400(self):
        with pytest.raises(BadRequest) as excinfo:
            run(parse(b"GET / HTTP/1.1\r\n"))
        assert excinfo.value.status == 400

    def test_oversized_body_raises_413(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"
        with pytest.raises(BadRequest) as excinfo:
            run(parse(raw))
        assert excinfo.value.status == 413

    def test_malformed_json_body_raises_on_access(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 4\r\n\r\nnope"
        request = run(parse(raw))
        with pytest.raises(BadRequest):
            request.json_body()

    def test_render_response_frames_with_content_length(self):
        payload = render_response(200, {"ETag": '"x"'}, b"hi")
        assert payload.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"ETag: \"x\"\r\n" in payload
        assert b"Content-Length: 2\r\n" in payload
        assert payload.endswith(b"\r\n\r\nhi")

    def test_304_renders_with_zero_length(self):
        payload = render_response(304, {"ETag": '"x"'})
        assert b"304 Not Modified" in payload
        assert b"Content-Length: 0" in payload

    def test_json_response_bytes_are_deterministic(self):
        one = json_response(200, {"b": 1, "a": 2})
        two = json_response(200, {"a": 2, "b": 1})
        assert one == two
        assert b'{"a": 2, "b": 1}' in one

    def test_split_target(self):
        assert split_target("/x?a=1") == ("/x", "a=1")
        assert split_target("/x") == ("/x", "")


def parse_all(data: bytes):
    """Every request on ``data`` in order, then the terminal outcome:
    ``None`` (clean EOF) or the :class:`BadRequest` raised."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        requests = []
        while True:
            try:
                request = await read_request(reader)
            except BadRequest as exc:
                return requests, exc
            if request is None:
                return requests, None
            requests.append(request)

    return run(go())


def bad_status(data: bytes) -> int:
    with pytest.raises(BadRequest) as excinfo:
        run(parse(data))
    return excinfo.value.status


class TestHttpFraming:
    """Ambiguous framing answers 400 (RFC 9112 §5.1, §6.1, §6.3): on a
    kept-alive connection a body length two parties read differently
    lets one request smuggle the next."""

    def test_conflicting_content_lengths_answer_400(self):
        raw = (
            b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n"
            b"Content-Length: 10\r\n\r\nabcGET /b HTTP/1.1\r\n\r\n"
        )
        assert bad_status(raw) == 400

    def test_repeated_identical_content_length_is_folded(self):
        raw = (
            b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n"
            b"Content-Length: 3\r\n\r\nabcGET /b HTTP/1.1\r\n\r\n"
        )
        requests, end = parse_all(raw)
        assert [(r.method, r.target, r.body) for r in requests] == [
            ("POST", "/a", b"abc"),
            ("GET", "/b", b""),
        ]
        assert end is None

    def test_content_length_beside_transfer_encoding_answers_400(self):
        raw = (
            b"POST /a HTTP/1.1\r\nContent-Length: 4\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"0\r\n\r\nGET /b HTTP/1.1\r\n\r\n"
        )
        assert bad_status(raw) == 400

    @pytest.mark.parametrize("length", [b"1_0", b"+3", b"-0", b"0x3", b"3, 3"])
    def test_content_length_must_be_plain_digits(self, length):
        raw = b"POST /a HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n" + b"x" * 16
        assert bad_status(raw) == 400

    @pytest.mark.parametrize("line", [b"Content-Length : 3", b"Content-Length\t: 3", b" Host: a"])
    def test_field_names_must_be_tokens(self, line):
        raw = b"POST /a HTTP/1.1\r\n" + line + b"\r\n\r\nabc"
        assert bad_status(raw) == 400

    @pytest.mark.parametrize(
        "request_line",
        [b"\nGET / HTTP/1.1", b"G(T / HTTP/1.1", b" GET / HTTP/1.1", b"GET /a\nb HTTP/1.1"],
    )
    def test_request_line_must_frame_cleanly(self, request_line):
        assert bad_status(request_line + b"\r\n\r\n") == 400

    def test_header_values_carry_no_bare_line_breaks(self):
        raw = b"GET / HTTP/1.1\r\nX-A: 1\nContent-Length: 3\r\n\r\nabc"
        assert bad_status(raw) == 400


_TCHARS = "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_TOKENS = st.text(alphabet=_TCHARS, min_size=1, max_size=12)
_VALUES = st.text(alphabet=st.characters(min_codepoint=0x21, max_codepoint=0x7E), max_size=16)


@st.composite
def _requests(draw):
    """(bytes, (method, target, headers, body)) of one well-formed request."""
    method = draw(_TOKENS)
    target = "/" + draw(_VALUES)
    names = draw(st.lists(_TOKENS, max_size=4, unique_by=str.lower))
    headers = {
        name.lower(): draw(_VALUES)
        for name in names
        if name.lower() not in ("content-length", "transfer-encoding")
    }
    head = [f"{method} {target} HTTP/1.{draw(st.sampled_from('01'))}"]
    head += [f"{name}: {value}" for name, value in headers.items()]
    body = draw(st.binary(max_size=32))
    if body or draw(st.booleans()):
        length = str(len(body))
        copies = draw(st.integers(min_value=1, max_value=2))
        head += [f"Content-Length: {length}"] * copies
        headers["content-length"] = length
    data = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
    return data, (method.upper(), target, headers, body)


class TestHttpParserFuzz:
    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=256))
    def test_arbitrary_bytes_parse_or_refuse(self, data):
        requests, end = parse_all(data)
        assert all(isinstance(r, HttpRequest) for r in requests)
        assert end is None or isinstance(end, BadRequest)
        assert end is None or end.status in (400, 411, 413)

    @settings(max_examples=100, deadline=None)
    @given(batch=st.lists(_requests(), min_size=1, max_size=3))
    def test_pipelined_requests_round_trip(self, batch):
        requests, end = parse_all(b"".join(data for data, _ in batch))
        assert end is None
        got = [(r.method, r.target, r.headers, r.body) for r in requests]
        assert got == [want for _, want in batch]

    @settings(max_examples=100, deadline=None)
    @given(request=_requests(), cut=st.integers(min_value=1))
    def test_truncated_requests_answer_400(self, request, cut):
        data, _ = request
        requests, end = parse_all(data[: 1 + cut % (len(data) - 1)])
        assert requests == []
        assert isinstance(end, BadRequest) and end.status == 400


class TestRoutePatterns:
    def test_state_route_app_extraction(self):
        assert _route_tenant("/v1/apps/web/state") == ("web", "state")
        assert _route_tenant("/v1/apps/web/solar") == ("web", "solar")
        assert _route_tenant("/v1/apps/a/b/state") == ("a", "b/state")
        assert _route_tenant("/v1/apps//state") == (None, "")
        # Writes are scoped by the same split; the segment stays raw.
        path = "/v1/apps/we%2Fb/battery/charge_rate"
        assert _route_tenant(path) == ("we%2Fb", "battery/charge_rate")
        assert _route_tenant("/v1/apps/web") == (None, "")
        assert _route_tenant("/v1/admin/apps/web") == (None, "")

    def test_stream_route_app_extraction(self):
        path = "/v1/apps/web/events/stream"
        assert _route_tenant(path) == ("web", "events/stream")


class TestSseFraming:
    def test_frame_with_id_event_and_data(self):
        frame = format_sse_event("CarbonChangeEvent", '{"x": 1}', seq=7)
        assert frame == b'id: 7\nevent: CarbonChangeEvent\ndata: {"x": 1}\n\n'

    def test_control_frame_has_no_id(self):
        frame = format_sse_event("stream_end", '{"reason": "evicted"}')
        assert frame.startswith(b"event: stream_end\n")
        assert b"id:" not in frame

    def test_heartbeat_is_a_comment(self):
        assert HEARTBEAT_FRAME.startswith(b":")
        assert HEARTBEAT_FRAME.endswith(b"\n\n")

    def test_stream_item_frame_roundtrip(self):
        item = StreamItem(name="X", data="{}", seq=3)
        assert item.frame() == b"id: 3\nevent: X\ndata: {}\n\n"


class TestSubscriberQueue:
    def test_overflow_counts_drops(self):
        async def scenario():
            sub = Subscriber("a", 0, queue_size=2)
            for i in range(5):
                sub._offer(StreamItem(name="X", data="{}", seq=i))
            return sub

        sub = run(scenario())
        assert sub.queue.qsize() == 2
        assert sub.dropped == 3

    def test_drain_surfaces_queue_dropped_notice(self):
        async def scenario():
            sub = Subscriber("a", 0, queue_size=2)
            for i in range(4):
                sub._offer(StreamItem(name="X", data="{}", seq=i))
            # Drain, then deliver one more: the gap notice must precede it.
            sub.queue.get_nowait()
            sub.queue.get_nowait()
            sub._offer(StreamItem(name="X", data="{}", seq=9))
            return [sub.queue.get_nowait() for _ in range(2)]

        first, second = run(scenario())
        assert first.name == "queue_dropped"
        assert json.loads(first.data)["dropped"] == 2
        assert second.seq == 9


class TestStreamBroker:
    def test_register_returns_backlog_from_cursor(self):
        async def scenario():
            eco = JournalOnly()
            for i in range(3):
                eco.journal.record("a", carbon_event(i))
            broker = StreamBroker(eco)
            broker.bind_loop(asyncio.get_running_loop())
            subscriber, backlog = broker.register("a", cursor=1)
            return subscriber, backlog

        subscriber, backlog = run(scenario())
        assert [item.seq for item in backlog] == [1, 2]
        assert subscriber.cursor == 3

    def test_register_unknown_app_raises(self):
        async def scenario():
            broker = StreamBroker(JournalOnly())
            broker.bind_loop(asyncio.get_running_loop())
            with pytest.raises(UnknownApplicationError):
                broker.register("ghost", cursor=0)

        run(scenario())

    def test_pump_delivers_new_events_once(self):
        async def scenario():
            eco = JournalOnly()
            eco.journal.record("a", carbon_event(0))
            broker = StreamBroker(eco)
            broker.bind_loop(asyncio.get_running_loop())
            subscriber, backlog = broker.register("a", cursor=0)
            eco.journal.record("a", carbon_event(1))
            eco.journal.record("a", carbon_event(2))
            broker.pump()
            broker.pump()  # no new events: must not redeliver
            await asyncio.sleep(0)
            items = []
            while not subscriber.queue.empty():
                items.append(subscriber.queue.get_nowait())
            return backlog, items

        backlog, items = run(scenario())
        assert [item.seq for item in backlog] == [0]
        assert [item.seq for item in items] == [1, 2]

    def test_pump_skips_backlog_overlap(self):
        async def scenario():
            eco = JournalOnly()
            broker = StreamBroker(eco)
            broker.bind_loop(asyncio.get_running_loop())
            eco.journal.record("a", carbon_event(0))
            first, _ = broker.register("a", cursor=0)
            broker.pump()  # tip -> 1
            # New events, then a second subscriber whose backlog already
            # covers them; the next pump must not duplicate into it.
            eco.journal.record("a", carbon_event(1))
            second, backlog = broker.register("a", cursor=0)
            broker.pump()
            await asyncio.sleep(0)
            delivered = []
            while not second.queue.empty():
                delivered.append(second.queue.get_nowait())
            return backlog, delivered

        backlog, delivered = run(scenario())
        assert [item.seq for item in backlog] == [0, 1]
        assert delivered == []  # the pump's [1] was already in the backlog

    def test_journal_overflow_mid_stream_surfaces_journal_dropped(self):
        async def scenario():
            eco = JournalOnly(capacity=4)
            eco.journal.record("a", carbon_event(0))
            broker = StreamBroker(eco)
            broker.bind_loop(asyncio.get_running_loop())
            subscriber, _ = broker.register("a", cursor=0)
            # Overflow the feed while the subscriber is idle.
            for i in range(1, 11):
                eco.journal.record("a", carbon_event(i))
            broker.pump()
            await asyncio.sleep(0)
            items = []
            while not subscriber.queue.empty():
                items.append(subscriber.queue.get_nowait())
            return items

        items = run(scenario())
        assert items[0].name == "journal_dropped"
        payload = json.loads(items[0].data)
        assert payload["dropped"] == 6  # seqs 1..6 fell out of capacity 4
        assert [item.seq for item in items[1:]] == [7, 8, 9, 10]

    def test_eviction_event_carries_terminal_marker(self):
        async def scenario():
            eco = JournalOnly()
            eco.journal.record("a", carbon_event(0))
            broker = StreamBroker(eco)
            broker.bind_loop(asyncio.get_running_loop())
            subscriber, _ = broker.register("a", cursor=0)
            eco.journal.record(
                "a", AppEvictedEvent(time_s=60.0, app_name="a")
            )
            broker.pump()
            await asyncio.sleep(0)
            items = []
            while not subscriber.queue.empty():
                items.append(subscriber.queue.get_nowait())
            return items

        items = run(scenario())
        assert items[0].name == "AppEvictedEvent"
        assert not items[0].terminal
        assert items[1].name == "stream_end"
        assert items[1].terminal
        assert json.loads(items[1].data) == {"reason": "evicted"}

    def test_resume_past_horizon_starts_from_oldest(self):
        async def scenario():
            eco = JournalOnly(capacity=3)
            for i in range(10):
                eco.journal.record("a", carbon_event(i))
            broker = StreamBroker(eco)
            broker.bind_loop(asyncio.get_running_loop())
            _, backlog = broker.register("a", cursor=0)
            return backlog

        backlog = run(scenario())
        assert backlog[0].name == "journal_dropped"
        assert json.loads(backlog[0].data)["dropped"] == 7
        assert [item.seq for item in backlog[1:]] == [7, 8, 9]

    def test_unregister_clears_tip_state(self):
        async def scenario():
            eco = JournalOnly()
            eco.journal.record("a", carbon_event(0))
            broker = StreamBroker(eco)
            broker.bind_loop(asyncio.get_running_loop())
            subscriber, _ = broker.register("a", cursor=0)
            assert broker.open_subscribers == 1
            broker.unregister(subscriber)
            return broker

        broker = run(scenario())
        assert broker.open_subscribers == 0
        assert broker._tips == {}

    def test_queue_drop_callback_fires(self):
        async def scenario():
            eco = JournalOnly()
            eco.journal.record("a", carbon_event(0))
            drops = []
            broker = StreamBroker(eco, queue_size=1, on_queue_drop=drops.append)
            broker.bind_loop(asyncio.get_running_loop())
            broker.register("a", cursor=1)
            for i in range(1, 5):
                eco.journal.record("a", carbon_event(i))
            broker.pump()
            await asyncio.sleep(0)
            return drops

        drops = run(scenario())
        assert sum(drops) == 3  # queue of 1 held one of four events

    def test_event_data_matches_cursor_poll_serialization(self):
        async def scenario():
            eco = JournalOnly()
            event = carbon_event(4)
            eco.journal.record("a", event)
            broker = StreamBroker(eco)
            broker.bind_loop(asyncio.get_running_loop())
            _, backlog = broker.register("a", cursor=0)
            return event, backlog[0]

        event, item = run(scenario())
        assert item.data == json.dumps(event_to_dict(event), sort_keys=True)
        assert item.name == "CarbonChangeEvent"


class TestSnapshotCache:
    def test_populate_is_single_flight(self):
        async def scenario():
            cache = SnapshotCache()
            builds = []

            async def build():
                builds.append(1)
                await asyncio.sleep(0.01)
                return CacheEntry("e", b"fresh", b"304")

            results = await asyncio.gather(
                cache.populate("a", build), cache.populate("a", build)
            )
            return builds, results

        builds, results = run(scenario())
        assert len(builds) == 1
        assert results[0] is results[1]

    def test_invalidate_during_build_discards_entry(self):
        async def scenario():
            cache = SnapshotCache()

            async def build():
                cache.invalidate()  # a tick lands mid-build
                return CacheEntry("e", b"fresh", b"304")

            entry = await cache.populate("a", build)
            return entry, cache.get("a")

        entry, cached = run(scenario())
        assert entry is not None
        assert cached is None  # stale-at-birth entries are not kept

    def test_error_builds_are_not_cached(self):
        async def scenario():
            cache = SnapshotCache()

            async def build():
                return None

            entry = await cache.populate("a", build)
            return entry, cache.get("a")

        entry, cached = run(scenario())
        assert entry is None
        assert cached is None

    def test_invalidate_clears_entries(self):
        async def scenario():
            cache = SnapshotCache()

            async def build():
                return CacheEntry("e", b"fresh", b"304")

            await cache.populate("a", build)
            assert cache.get("a") is not None
            cache.invalidate()
            return cache.get("a")

        assert run(scenario()) is None

    def test_invalidate_app_drops_only_its_tenant(self):
        async def scenario():
            cache = SnapshotCache()

            async def build():
                return CacheEntry("e", b"fresh", b"304")

            for app in ("a", "b"):
                await cache.populate(app, build)
            cache.invalidate_app("a")
            cache.invalidate_app("ghost")  # unknown tenants are a no-op
            return cache

        cache = run(scenario())
        assert cache.get("a") is None
        assert cache.get("b") is not None
        assert cache.tenant_invalidations == 2
        assert cache.invalidations == 0

    def test_own_tenant_drop_during_build_discards_entry(self):
        async def scenario():
            cache = SnapshotCache()

            async def build():
                cache.invalidate_app("a")  # a write to "a" lands mid-build
                return CacheEntry("e", b"fresh", b"304")

            entry = await cache.populate("a", build)
            return entry, cache.get("a")

        entry, cached = run(scenario())
        assert entry is not None  # the waiting caller still gets it
        assert cached is None

    def test_other_tenant_drop_during_build_keeps_entry(self):
        async def scenario():
            cache = SnapshotCache()

            async def build():
                cache.invalidate_app("b")
                return CacheEntry("e", b"fresh", b"304")

            entry = await cache.populate("a", build)
            return entry, cache.get("a")

        entry, cached = run(scenario())
        assert cached is entry

    def test_reader_after_a_drop_starts_a_fresh_build(self):
        async def scenario():
            cache = SnapshotCache()
            release = asyncio.Event()
            built = []

            async def build():
                n = len(built) + 1
                built.append(n)
                if n == 1:
                    await release.wait()
                return CacheEntry(f"e{n}", b"fresh", b"304")

            first = asyncio.ensure_future(cache.populate("a", build))
            await asyncio.sleep(0)
            cache.invalidate_app("a")
            try:
                # Joining the first build would wait for ever.
                second = await asyncio.wait_for(cache.populate("a", build), 5)
            finally:
                release.set()
            return await first, second, cache.get("a"), cache.populates

        first, second, cached, populates = run(scenario())
        assert (first.etag, second.etag) == ("e1", "e2")
        assert cached is second  # the stale first build was not stored
        assert populates == 2


class TestGatewayLifecycle:
    def test_run_on_writer_before_start_raises(self):
        env = build_fleet({"apps": 2, "mix": "balanced", "seed": 1, "ticks": 4})
        gateway = GatewayServer(env.ecovisor)
        with pytest.raises(RuntimeError, match="gateway not started"):
            run(gateway.run_on_writer(env.engine.run, 1))
        assert env.engine.clock.tick_index == 0  # nothing ran
        run(gateway.stop())
