"""The gateway workload: serve_50.

``repro serve fleet_small`` runs in its own process with ticks paced at
50 ms.  One open-loop generator (``loadgen``) drives it over two
keep-alive connections at a fixed 1000 req/s: 95% conditional state
reads (``If-None-Match`` with the last ETag seen) spread uniformly over
the 50 tenants, and 5% battery charge-rate writes to tenants holding a
battery share.  Every write drops every cached snapshot, so reads after
it queue on the writer thread behind ticks.

The end-to-end run reports what holds still between runs on a small
shared host: the server's CPU per request (from ``/proc``), its tick
times (``traced_serve.py`` in ``ticks`` mode), its peak RSS and its
start-up time.  Request latencies, which swing with every stall of the
host, and the highest rate that stays within one paced tick are
reported by the traced run, which serves the fixed rate once with only
ticks timed and once with every stage timed.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

import fleetload
from loadgen import LoadGenerator, Phase, Request, plan
from spans import load, self_times
from stats import host_probe, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SERVE_ARGS = [
    "serve", "fleet_small", "--port", "0", "--tick-interval", "0.05",
    # Enough ticks to keep advancing past the longest run.
    "--ticks", "6000",
]
FIXED_RATE = 1000.0
WARMUP_S = 1.0
#: Offered rates above the fixed one, climbed until one misses.
LADDER = (1250, 1500, 1750, 2000, 2500, 3000, 3500, 4000, 5000, 6000, 8000)
RUNG_S = 2.0
P99_LIMIT_S = 0.050
#: Server launches per end-to-end run (set-up time is their median).
SETUPS = 5
START_TIMEOUT_S = 60.0
#: Host probes the generator takes before a traced run (for the record).
PROBES = 20

#: Request stages reported per request (see traced_serve.py).
STAGES = (
    "gateway.http.parse",
    "gateway.cache.hit",
    "gateway.server.writer_wait",
    "rest.server.dispatch",
    "gateway.server.serialize",
    "gateway.server.write",
)

#: Per-layer metrics only the gateway produces; the fleet workloads run
#: no gateway and report them as 0.
GATEWAY_METRICS = (
    *(f"{stage}.self_us" for stage in STAGES),
    *(f"{stage}.calls" for stage in STAGES),
    "gateway.driver.tick.self_ms",
    "gateway.cache.populates",
    "gateway.cache.invalidations",
    "gateway.server.cpu_us_per_req",
    "req.read_p50_ms",
    "req.write_p50_ms",
    "req.p99_ms",
    "req.max_rate_rps",
    "loadgen.lag_p50_ms",
    "loadgen.lag_p99_ms",
    "trace.untraced.req_p50_ms",
    "trace.traced.req_p50_ms",
)


class Server:
    """One ``repro serve`` process under ``traced_serve.py``, up once its
    ``serving`` line is out; ``records`` holds its dump after ``stop``."""

    def __init__(self, mode: str = "ticks"):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        OUT.mkdir(exist_ok=True)
        self._dump = OUT / f"serve-{os.getpid()}-{id(self)}.json"
        argv = [sys.executable, str(HERE / "traced_serve.py"), mode,
                str(self._dump), *SERVE_ARGS]
        self.records: Dict = {}
        started = perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        self.output = b""
        try:
            line = self._await_line(b"serving ")
        except BaseException:
            self.stop()
            raise
        self.setup_s = perf_counter() - started
        address = line.split(b"http://", 1)[1].split(b" ", 1)[0].decode()
        host, port = address.rsplit(":", 1)
        self.host, self.port = host, int(port)

    def _await_line(self, marker: bytes) -> bytes:
        fd = self.proc.stdout.fileno()
        deadline = perf_counter() + START_TIMEOUT_S
        while True:
            for line in self.output.split(b"\n")[:-1]:
                if line.startswith(marker):
                    return line
            remaining = deadline - perf_counter()
            if remaining <= 0:
                raise RuntimeError("server did not start in time")
            ready, _, _ = select.select([fd], [], [], remaining)
            chunk = os.read(fd, 65536) if ready else b""
            if ready and not chunk:
                self.proc.wait()
                raise RuntimeError(
                    f"server exited early:\n{self.output.decode(errors='replace')}"
                )
            self.output += chunk

    def _proc_file(self, name: str) -> str:
        with open(f"/proc/{self.proc.pid}/{name}") as fh:
            return fh.read()

    def peak_rss_mb(self) -> float:
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_s(self) -> float:
        fields = self._proc_file("stat").rsplit(")", 1)[1].split()
        # utime and stime are fields 14 and 15 of /proc/<pid>/stat.
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """SIGINT (the operator's Ctrl-C), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.output += self.proc.stdout.read()
        self.proc.stdout.close()
        if self._dump.exists():
            self.records = load(str(self._dump))
            self._dump.unlink()


def discover(server: Server) -> Tuple[List[str], List[str]]:
    """All tenants, and those holding a battery share, from the admin API."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request("GET", "/v1/admin/apps")
        reply = conn.getresponse()
        doc = json.loads(reply.read())
    finally:
        conn.close()
    if reply.status != 200:
        raise RuntimeError(f"GET /v1/admin/apps answered {reply.status}")
    apps = [a["name"] for a in doc["apps"]]
    batteries = [a["name"] for a in doc["apps"] if a["battery_fraction"] > 0]
    return apps, batteries


class Session:
    """A generator bound to one server, feeding phases from one plan."""

    def __init__(self, server: Server, seed: int):
        self._apps, self._batteries = discover(server)
        self._seed = seed
        self._queued: List[Request] = []
        self._blocks = 0
        self.gen = LoadGenerator(server.host, server.port)
        self.phases: List[Phase] = []

    def _take(self, count: int) -> List[Request]:
        """The next ``count`` requests of the seed's stream."""
        while len(self._queued) < count:
            self._queued += plan(self._apps, self._batteries, self._seed, self._blocks)
            self._blocks += 1
        batch, self._queued = self._queued[:count], self._queued[count:]
        return batch

    def phase(self, rate: float, seconds: float) -> Phase:
        result = self.gen.run(self._take(int(rate * seconds)), rate)
        self.phases.append(result)
        return result

    def close(self) -> None:
        self.gen.close()

    def totals(self) -> Dict[str, int]:
        return {
            "attempted": sum(p.sent for p in self.phases),
            "failed": sum(p.failed for p in self.phases),
        }


def passes(phase: Phase) -> bool:
    """p99 within one paced tick, nothing failed, no backlog at the end."""
    if phase.failed or not phase.latency_s:
        return False
    return (
        percentile(phase.latency_s, 99) <= P99_LIMIT_S
        and phase.backlog <= phase.rate * P99_LIMIT_S
    )


def max_rate(session: Session, fixed: Phase) -> float:
    best = FIXED_RATE if passes(fixed) else 0.0
    if not best:
        return best
    for rate in LADDER:
        if not passes(session.phase(rate, RUNG_S)):
            break
        best = float(rate)
    return best


class Window:
    """One fixed-rate window on one server, with what the server did."""

    def __init__(self, server: Server, seed: int, seconds: float):
        self.server = server
        self.session = Session(server, seed)
        self.cpu_s = 0.0
        self.phase = Phase(rate=FIXED_RATE)
        try:
            self.session.phase(FIXED_RATE, WARMUP_S)
            cpu0 = server.cpu_s()
            self.phase = self.session.phase(FIXED_RATE, seconds)
            self.cpu_s = server.cpu_s() - cpu0
        except BaseException:
            self.session.close()
            raise

    def close(self) -> None:
        self.session.close()

    def ticks(self) -> List[list]:
        """Tick records of ticks that started inside the window."""
        return [r for r in self.server.records.get("ticks", [])
                if self.phase.start <= r[0] <= self.phase.end]

    def tick_metrics(self, wall: bool = False) -> Dict[str, float]:
        """Tick rate and percentiles in writer-thread CPU time, or in
        wall time (which adds the waits for the event loop's GIL)."""
        ticks = [r[1] - r[0] if wall else r[2] for r in self.ticks()]
        if not ticks:
            raise RuntimeError(
                "the server ran no tick during the window; its output:\n"
                + self.server.output.decode(errors="replace")[-2000:]
            )
        return {
            "ticks_per_s": len(ticks) / sum(ticks),
            "tick_p50_ms": percentile(ticks, 50) * 1e3,
            "tick_p99_ms": percentile(ticks, 99) * 1e3,
        }

    def cpu_us_per_req(self) -> float:
        return self.cpu_s / max(self.phase.sent, 1) * 1e6


def _outcome(sessions: List[Session], metrics: Dict[str, float]) -> Dict:
    attempted = sum(s.totals()["attempted"] for s in sessions)
    failed = sum(s.totals()["failed"] for s in sessions)
    return {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }


def run_timed(seed: int, seconds: float) -> Dict:
    """The end-to-end measurement: ``SETUPS`` launches, then one fixed-
    rate window that fills what is left of ``seconds``."""
    started = perf_counter()
    setups = []
    for _ in range(SETUPS - 1):
        server = Server()
        setups.append(server.setup_s)
        server.stop()
    server = Server()
    setups.append(server.setup_s)
    try:
        length = max(seconds - (perf_counter() - started) - WARMUP_S, 1.0)
        window = Window(server, seed, length)
        window.close()
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    metrics = window.tick_metrics()
    metrics["cpu_us_per_op"] = window.cpu_us_per_req()
    metrics["peak_rss_mb"] = rss
    metrics["setup_s"] = percentile(setups, 50)
    return _outcome([window.session], metrics)


def stage_metrics(records: Dict, fixed: Phase) -> Dict[str, float]:
    """Per-stage self time (median per request) and calls per request."""
    spans, pauses = records["spans"], records["gc"]
    window_end = fixed.end + 1.0
    inside = [s for s in spans if fixed.start <= s[2] and s[3] <= window_end]
    own = self_times(inside, pauses)
    requests = max(fixed.sent, 1)
    by_name: Dict[str, List[float]] = {}
    for sid, name, start, end, *_ in inside:
        # A tick's own time is reported whole; the fleet layers split it.
        by_name.setdefault(name, []).append(
            end - start if name == "gateway.driver.tick" else own[sid][0]
        )
    out = {}
    for stage in STAGES:
        values = by_name.get(stage, [])
        out[f"{stage}.self_us"] = percentile(values, 50) * 1e6
        out[f"{stage}.calls"] = len(values) / requests
    ticks = by_name.get("gateway.driver.tick", [])
    out["gateway.driver.tick.self_ms"] = sum(ticks) / max(len(ticks), 1) * 1e3
    out["gateway.cache.populates"] = len(by_name.get("gateway.cache.populate", [])) / requests
    out["gateway.cache.invalidations"] = (
        len(by_name.get("gateway.cache.invalidate", [])) / requests
    )
    return out


def tick_layer_metrics(window: Window) -> Dict[str, float]:
    """The fleet layers inside the server's ticks, as for the fleet
    workloads; GC pauses count only when they hit the writer thread."""
    records = window.server.records
    ticks = window.ticks()
    writer = {s[0] for s in records["spans"]
              if s[1] == "gateway.driver.tick" or s[1] in fleetload.FLEET_LAYERS}
    pauses = [g for g in records["gc"] if g[3] in writer]
    out = fleetload.layer_metrics([([(r[0], r[1]) for r in ticks],
                                    records["spans"], pauses)])
    steps = len(ticks) - 1
    for i, name in enumerate(fleetload.COUNTERS):
        out[name] = (ticks[-1][5 + i] - ticks[0][5 + i]) / max(steps, 1)
    changes = sum(1 for a, b in zip(ticks, ticks[1:]) if a[4] != b[4])
    out["core.upcalls.rebuilds"] = changes / max(steps, 1)
    return out


def run_traced(seed: int, seconds: float) -> Dict:
    """The fixed rate on a server with only ticks timed (then the rate
    ladder), and again on a server with every stage timed."""
    half = max(seconds / 2.0, 1.0)
    probe_s = percentile([host_probe() for _ in range(PROBES)], 50)
    server = Server()
    try:
        plain = Window(server, seed, half)
        try:
            best = max_rate(plain.session, plain.phase)
        finally:
            plain.close()
    finally:
        server.stop()
    server = Server("stages")
    try:
        traced = Window(server, seed, half)
        traced.close()
    finally:
        server.stop()
    ticks = plain.tick_metrics()
    raw = plain.tick_metrics(wall=True)
    records = plain.ticks()
    live = [r[3] for r in records]
    metrics = stage_metrics(server.records, traced.phase)
    metrics.update(tick_layer_metrics(traced))
    fixed = plain.phase
    metrics.update(
        {
            "sim.engine.live_apps": sum(live) / len(live),
            "sim.engine.us_per_app_tick": sum(r[2] for r in records)
            / sum(live) * 1e6,
            "trace.untraced.ticks_per_s": ticks["ticks_per_s"],
            "trace.traced.ticks_per_s": traced.tick_metrics()["ticks_per_s"],
            "host.raw.ticks_per_s": raw["ticks_per_s"],
            "host.raw.tick_p50_ms": raw["tick_p50_ms"],
            "host.probe_us": probe_s * 1e6,
            "gateway.server.cpu_us_per_req": plain.cpu_us_per_req(),
            "req.read_p50_ms": percentile(fixed.read_s, 50) * 1e3,
            "req.write_p50_ms": percentile(fixed.write_s, 50) * 1e3,
            "req.p99_ms": percentile(fixed.latency_s, 99) * 1e3,
            "req.max_rate_rps": best,
            "loadgen.lag_p50_ms": percentile(fixed.lag_s, 50) * 1e3,
            "loadgen.lag_p99_ms": percentile(fixed.lag_s, 99) * 1e3,
            "trace.untraced.req_p50_ms": percentile(fixed.latency_s, 50) * 1e3,
            "trace.traced.req_p50_ms": percentile(traced.phase.latency_s, 50) * 1e3,
        }
    )
    return _outcome([plain.session, traced.session], metrics)


def run(seed: int, seconds: float, trace: bool) -> Dict:
    return run_traced(seed, seconds) if trace else run_timed(seed, seconds)
