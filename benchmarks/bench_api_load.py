"""Gateway checks over real loopback sockets: lossless SSE fan-out, and a
smoke test of a running ``repro serve``.

Without options the script builds a 50-tenant fleet, fronts it with the
asyncio :class:`GatewayServer`, opens 500 concurrent event streams
(spread over the fleet's apps, each resuming from its feed tip), then
bursts 100 journal events per app.  Every subscriber must receive every
event of its app with contiguous ids: **zero loss** below the
per-connection queue bound (256).  It exits 1 on any loss and reports
the fan-out delivery rate (frames/s across all subscribers):

    PYTHONPATH=src python benchmarks/bench_api_load.py

With ``--connect HOST:PORT`` it targets an already running server
(e.g. ``python -m repro serve fleet_small``) instead: it discovers apps
via ``/v1/admin/apps``, runs 8 keep-alive conditional-GET clients for
0.5 s (every status must be 200 or 304), and checks that an SSE stream
resumed with ``Last-Event-ID`` continues at the next id — CI's gateway
smoke step.  ``--out`` writes the result as JSON.  Request throughput is
perfbench's serve_50 workload (``perfbench/NOTES.md``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.events import CarbonChangeEvent
from repro.gateway import GatewayConfig, GatewayServer, TickDriver
from repro.sim.fleet import build_fleet

SCHEMA = "bench_api_load/v1"

#: The fan-out fleet and burst; the burst stays below the queue bound,
#: where the zero-loss property holds.
FLEET = {"apps": 50, "ticks": 20, "seed": 2023, "mix": "balanced"}
SUBSCRIBERS = 500
EVENTS_PER_APP = 100
QUEUE_SIZE = 256

#: The smoke's conditional-GET clients and how long they poll.
SMOKE_CLIENTS = 8
SMOKE_SECONDS = 0.5


async def _read_response(reader: asyncio.StreamReader) -> Tuple[int, Dict[str, str], bytes]:
    """Read one Content-Length-framed response from a keep-alive socket."""
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed connection")
    status = int(status_line.split()[1])
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length = int(headers.get("content-length", 0))
    if length:
        body = await reader.readexactly(length)
    return status, headers, body


async def _get_json(host: str, port: int, path: str) -> Any:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n".encode()
        )
        await writer.drain()
        status, _, body = await _read_response(reader)
        if status != 200:
            raise ConnectionError(f"GET {path} -> {status}")
        return json.loads(body)
    finally:
        writer.close()


async def _cached_get_storm(host: str, port: int, apps: List[str]) -> Dict[str, Any]:
    """Keep-alive conditional-GET clients, shared wall clock."""
    totals = {"requests": 0, "not_modified": 0}
    deadline = time.perf_counter() + SMOKE_SECONDS

    async def client(app: str) -> None:
        reader, writer = await asyncio.open_connection(host, port)
        etag: Optional[str] = None
        try:
            while time.perf_counter() < deadline:
                head = f"GET /v1/apps/{app}/state HTTP/1.1\r\nHost: bench\r\n"
                if etag:
                    head += f"If-None-Match: {etag}\r\n"
                head += "\r\n"
                writer.write(head.encode())
                await writer.drain()
                status, headers, _ = await _read_response(reader)
                if status not in (200, 304):
                    raise ConnectionError(f"state poll -> {status}")
                totals["requests"] += 1
                if status == 304:
                    totals["not_modified"] += 1
                etag = headers.get("etag", etag)
        finally:
            writer.close()

    await asyncio.gather(*(client(apps[i % len(apps)]) for i in range(SMOKE_CLIENTS)))
    return {
        "clients": SMOKE_CLIENTS,
        "duration_s": SMOKE_SECONDS,
        "requests_total": totals["requests"],
        "not_modified_total": totals["not_modified"],
        "etag_hit_rate": totals["not_modified"] / max(totals["requests"], 1),
    }


async def _read_sse_head(reader: asyncio.StreamReader) -> None:
    status_line = await reader.readline()
    if b"200" not in status_line:
        raise ConnectionError(f"stream refused: {status_line!r}")
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return


async def _sse_fanout(gateway: GatewayServer, apps: List[str]) -> Dict[str, Any]:
    """Fan one event burst out to every subscriber, losslessly."""
    host, port = "127.0.0.1", gateway.port
    journal = gateway.ecovisor.journal
    tips = await gateway.run_on_writer(
        lambda: {app: journal.read(app).next_cursor for app in apps}
    )
    # 3.10-compatible barrier: every subscriber must have received its
    # stream_open frame (i.e. be registered with the broker) before the
    # burst, or "zero loss" would race registration.
    registered = 0
    all_ready = asyncio.Event()

    def note_ready() -> None:
        nonlocal registered
        registered += 1
        if registered == SUBSCRIBERS:
            all_ready.set()

    async def subscribe(app: str) -> Tuple[int, List[int]]:
        reader, writer = await asyncio.open_connection(host, port)
        ids: List[int] = []
        try:
            writer.write(
                f"GET /v1/apps/{app}/events/stream?cursor={tips[app]} "
                "HTTP/1.1\r\nHost: bench\r\n"
                "Accept: text/event-stream\r\n\r\n".encode()
            )
            await writer.drain()
            await _read_sse_head(reader)
            while True:  # consume the stream_open frame, then report in
                line = await reader.readline()
                if line in (b"\n", b"\r\n"):
                    break
            note_ready()
            while len(ids) < EVENTS_PER_APP:
                line = await reader.readline()
                if not line:
                    break
                if line.startswith(b"id:"):
                    ids.append(int(line[3:]))
        finally:
            writer.close()
        return tips[app], ids

    tasks = [
        asyncio.ensure_future(subscribe(apps[i % len(apps)]))
        for i in range(SUBSCRIBERS)
    ]

    def burst() -> None:
        for app in apps:
            for i in range(EVENTS_PER_APP):
                journal.record(
                    app,
                    CarbonChangeEvent(
                        time_s=float(i),
                        previous_g_per_kwh=100.0,
                        current_g_per_kwh=100.0 + i,
                    ),
                )
        gateway.broker.pump()

    await all_ready.wait()
    started = time.perf_counter()
    await gateway.run_on_writer(burst)
    results = await asyncio.gather(*tasks)
    wall_s = time.perf_counter() - started

    lost = 0
    for tip, ids in results:
        expected = list(range(tip, tip + EVENTS_PER_APP))
        if ids != expected:
            lost += 1
    delivered = sum(len(ids) for _, ids in results)
    dropped = gateway.ecovisor.metrics.get(
        "gateway_sse_queue_dropped_total"
    ).value
    return {
        "subscribers": SUBSCRIBERS,
        "events_per_app": EVENTS_PER_APP,
        "fanout_events_total": delivered,
        "fanout_wall_s": wall_s,
        "fanout_events_per_s": delivered / wall_s,
        "queue_dropped_total": dropped,
        "subscribers_with_loss": lost,
    }


async def _sse_reconnect_check(host: str, port: int, app: str) -> Dict[str, Any]:
    """External-mode smoke: stream, disconnect, resume via Last-Event-ID."""

    async def next_event_id(headers: str) -> int:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(
                f"GET /v1/apps/{app}/events/stream?cursor=0 HTTP/1.1\r\n"
                f"Host: bench\r\nAccept: text/event-stream\r\n{headers}\r\n".encode()
            )
            await writer.drain()
            await _read_sse_head(reader)
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=30)
                if line.startswith(b"id:"):
                    return int(line[3:])
        finally:
            writer.close()

    first = await next_event_id("")
    resumed = await next_event_id(f"Last-Event-ID: {first}\r\n")
    if resumed != first + 1:
        raise SystemExit(
            f"SSE reconnect check failed: saw id {first}, resumed with "
            f"Last-Event-ID and got id {resumed} (expected {first + 1})"
        )
    return {"first_id": first, "resumed_id": resumed}


async def run_inprocess() -> Dict[str, Any]:
    env = build_fleet(FLEET)
    gateway = GatewayServer(
        env.ecovisor, config=GatewayConfig(port=0, queue_size=QUEUE_SIZE)
    )
    await gateway.start()
    try:
        await TickDriver(gateway, env.engine).run(FLEET["ticks"])
        names = sorted(env.ecovisor.app_shares())
        fanout = await _sse_fanout(gateway, names)
    finally:
        await gateway.stop()
    return {"schema": SCHEMA, **FLEET, "queue_size": QUEUE_SIZE, **fanout}


async def run_external(host: str, port: int) -> Dict[str, Any]:
    listing = await _get_json(host, port, "/v1/admin/apps")
    names = sorted(entry["name"] for entry in listing["apps"])
    if not names:
        raise SystemExit(f"no apps registered at {host}:{port}")
    storm = await _cached_get_storm(host, port, names)
    reconnect = await _sse_reconnect_check(host, port, names[0])
    return {
        "schema": SCHEMA,
        "mode": "external",
        "target": f"{host}:{port}",
        "apps": len(names),
        **storm,
        "sse_reconnect": reconnect,
    }


def print_table(result: Dict[str, Any]) -> None:
    print(f"\n=== gateway: {result['apps']} apps ===")
    if "requests_total" in result:
        print(
            f"{'conditional GETs':>22s}: {result['requests_total']} from "
            f"{result['clients']} clients in {result['duration_s']:.1f}s"
        )
        print(f"{'etag hit rate':>22s}: {result['etag_hit_rate'] * 100:.1f}% (304s)")
    if "fanout_events_total" in result:
        print(
            f"{'sse fan-out':>22s}: {result['subscribers']} subscribers x "
            f"{result['events_per_app']} events"
        )
        print(
            f"{'delivered':>22s}: {result['fanout_events_total']} frames "
            f"({result['fanout_events_per_s']:.0f}/s, "
            f"{result['subscribers_with_loss']} lossy, "
            f"{result['queue_dropped_total']} queue drops)"
        )
    if "sse_reconnect" in result:
        r = result["sse_reconnect"]
        print(
            f"{'sse reconnect':>22s}: id {r['first_id']} -> "
            f"resumed at {r['resumed_id']} (ok)"
        )


def check_zero_loss(result: Dict[str, Any]) -> int:
    """No loss below the queue bound."""
    if result["subscribers_with_loss"] or result["queue_dropped_total"]:
        print(
            f"FAIL: SSE fan-out lost events below the queue bound "
            f"({result['subscribers_with_loss']} lossy subscribers, "
            f"{result['queue_dropped_total']} queue drops with "
            f"events_per_app={result['events_per_app']} < "
            f"queue_size={result['queue_size']})",
            file=sys.stderr,
        )
        return 1
    return 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--connect",
        type=str,
        default=None,
        metavar="HOST:PORT",
        help="smoke-test a running `repro serve` instead of the in-process "
        "fan-out check",
    )
    parser.add_argument("--out", type=str, default=None, help="JSON output path")
    args = parser.parse_args()

    if args.connect is not None:
        host, _, port = args.connect.rpartition(":")
        result = asyncio.run(run_external(host or "127.0.0.1", int(port)))
        status = 0
    else:
        result = asyncio.run(run_inprocess())
        status = check_zero_loss(result)
    print_table(result)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True))
    raise SystemExit(status)


if __name__ == "__main__":
    main()
