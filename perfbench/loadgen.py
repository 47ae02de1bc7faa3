"""Open-loop HTTP/1.1 load generator over a few keep-alive connections.

One thread, non-blocking sockets and ``select``: request ``i`` of a
phase is due at ``t0 + i / rate`` and is written when due, whether or
not earlier replies have arrived (requests pipeline on the connection).
Latency is timed from the due time, so a stall also counts against the
requests queued behind it; how late the generator itself sent each
request is recorded as its lag.

Replies are checked as they are parsed: a status other than 200/304, an
unparsable body, a reset, a timeout, or a ``tick_index`` that goes
backwards for one app on one connection is a failed request.
"""

from __future__ import annotations

import json
import select
import socket
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Deque, Dict, List, Tuple

import numpy as np


@dataclass
class Request:
    """One planned request: a state read or a battery write."""

    app: str
    write: bool
    watts: float = 0.0


@dataclass
class Phase:
    """Outcomes of the requests sent during one phase."""

    rate: float
    sent: int = 0
    failed: int = 0
    latency_s: List[float] = field(default_factory=list)
    read_s: List[float] = field(default_factory=list)
    write_s: List[float] = field(default_factory=list)
    lag_s: List[float] = field(default_factory=list)
    #: Requests still unanswered when the last one was due.
    backlog: int = 0
    start: float = 0.0
    end: float = 0.0


#: Requests per generated block; block ``b`` of a seed never changes.
BLOCK = 4096
#: Share of requests that are battery writes; the rest are state reads.
WRITE_SHARE = 0.05
#: Keep-alive connections the requests are spread over.
CONNECTIONS = 2
#: How long after its last request a phase waits for replies.
DRAIN_S = 10.0


def plan(apps: List[str], battery_apps: List[str], seed: int,
         block: int) -> List[Request]:
    """Block ``block`` of the seed's request stream: reads spread
    uniformly over the tenants and ``WRITE_SHARE`` battery writes."""
    rng = np.random.default_rng([seed, 0x5E7, block])
    picks = rng.integers(len(apps), size=BLOCK)
    writes = rng.random(BLOCK) < WRITE_SHARE
    targets = rng.integers(len(battery_apps), size=BLOCK)
    watts = rng.uniform(0.0, 5.0, size=BLOCK)
    return [
        Request(battery_apps[int(t)], True, round(float(w), 3))
        if is_write
        else Request(apps[int(p)], False)
        for p, is_write, t, w in zip(picks, writes, targets, watts)
    ]


class _Conn:
    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        #: (due, request, phase) of requests awaiting their reply.
        self.waiting: Deque[Tuple[float, Request, Phase]] = deque()
        self.last_tick: Dict[str, int] = {}

    def close(self) -> None:
        self.sock.close()


def _flush(conn: _Conn) -> None:
    """Write as much of the connection's pending bytes as fits now."""
    try:
        sent = conn.sock.send(conn.outbuf)
    except BlockingIOError:
        return
    del conn.outbuf[:sent]


class LoadGenerator:
    """Drives one server through phases of fixed offered rate."""

    def __init__(self, host: str, port: int):
        self._conns = [_Conn(host, port) for _ in range(CONNECTIONS)]
        self._etags: Dict[str, str] = {}

    def close(self) -> None:
        for conn in self._conns:
            conn.close()

    # -- requests ----------------------------------------------------------
    def _encode(self, req: Request) -> bytes:
        if req.write:
            body = json.dumps({"watts": req.watts}).encode()
            return (
                f"POST /v1/apps/{req.app}/battery/charge_rate HTTP/1.1\r\n"
                f"Host: bench\r\nContent-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode() + body
        etag = self._etags.get(req.app)
        cond = f"If-None-Match: {etag}\r\n" if etag else ""
        return (
            f"GET /v1/apps/{req.app}/state HTTP/1.1\r\nHost: bench\r\n{cond}\r\n"
        ).encode()

    def _reply(self, conn: _Conn, status: int, headers: Dict[str, str],
               body: bytes, now: float) -> None:
        due, req, phase = conn.waiting.popleft()
        latency = now - due
        phase.latency_s.append(latency)
        (phase.write_s if req.write else phase.read_s).append(latency)
        if status not in (200, 304) or (req.write and status != 200):
            phase.failed += 1
            return
        etag = headers.get("etag")
        if etag and not req.write:
            self._etags[req.app] = etag
        if status == 304:
            return
        try:
            doc = json.loads(body)
        except ValueError:
            phase.failed += 1
            return
        if req.write:
            phase.failed += int(doc != {"ok": True})
            return
        tick = doc.get("tick_index") if isinstance(doc, dict) else None
        if not isinstance(tick, int):
            phase.failed += 1
            return
        phase.failed += int(tick < conn.last_tick.get(req.app, -1))
        conn.last_tick[req.app] = tick

    def _parse(self, conn: _Conn, now: float) -> None:
        buf = conn.inbuf
        while True:
            head_end = buf.find(b"\r\n\r\n")
            if head_end < 0:
                return
            lines = bytes(buf[:head_end]).decode("latin-1").split("\r\n")
            headers = {}
            for line in lines[1:]:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0"))
            total = head_end + 4 + length
            if len(buf) < total:
                return
            body = bytes(buf[head_end + 4 : total])
            del buf[:total]
            try:
                status = int(lines[0].split(" ", 2)[1])
            except (IndexError, ValueError):
                status = -1
            if not conn.waiting:
                raise ConnectionError("reply without a request")
            self._reply(conn, status, headers, body, now)

    def _pump(self, timeout: float) -> None:
        """Wait up to ``timeout`` for I/O; read and write what is ready."""
        readers = [c.sock for c in self._conns]
        writers = [c.sock for c in self._conns if c.outbuf]
        readable, writable, _ = select.select(readers, writers, [], max(timeout, 0.0))
        if not readable and not writable:
            return
        now = perf_counter()
        for conn in self._conns:
            if conn.sock in writable:
                _flush(conn)
            if conn.sock in readable:
                data = conn.sock.recv(1 << 18)
                if not data:
                    raise ConnectionError("server closed the connection")
                conn.inbuf += data
                self._parse(conn, now)

    def _send(self, conn: _Conn, req: Request, due: float, phase: Phase) -> None:
        conn.outbuf += self._encode(req)
        conn.waiting.append((due, req, phase))
        _flush(conn)

    def outstanding(self) -> int:
        return sum(len(c.waiting) for c in self._conns)

    # -- phases ------------------------------------------------------------
    def run(self, requests: List[Request], rate: float) -> Phase:
        """Send ``requests`` at ``rate`` per second, then await replies.

        Requests still unanswered ``DRAIN_S`` after the last one was due
        count as timed out (failed); so does every request on a
        connection that broke.
        """
        phase = Phase(rate=rate)
        conns = self._conns
        t0 = perf_counter() + 0.001
        phase.start = t0
        n = len(requests)
        i = 0
        try:
            while i < n:
                now = perf_counter()
                while i < n and t0 + i / rate <= now:
                    due = t0 + i / rate
                    phase.lag_s.append(now - due)
                    self._send(conns[i % len(conns)], requests[i], due, phase)
                    phase.sent += 1
                    i += 1
                if i < n:
                    self._pump(t0 + i / rate - perf_counter())
            phase.end = t0 + (n - 1) / rate
            phase.backlog = self.outstanding()
            deadline = perf_counter() + DRAIN_S
            while self.outstanding() and perf_counter() < deadline:
                self._pump(deadline - perf_counter())
        except (ConnectionError, OSError):
            # Requests never sent count as attempted and failed.
            phase.sent += n - i
            phase.failed += n - i
        for conn in conns:  # timed out, or lost with a broken connection
            phase.failed += len(conn.waiting)
            conn.waiting.clear()
        return phase
