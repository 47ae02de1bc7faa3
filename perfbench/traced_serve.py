"""``repro serve`` with its ticks, and optionally its stages, timed.

    python3 perfbench/traced_serve.py MODE SPANS_OUT serve fleet_small --port 0 ...

Installs wrappers, then hands the remaining arguments to
``repro.cli.main`` (the entry point operators use).  When the server
stops (SIGINT), spans and one record per tick are written to
``SPANS_OUT`` as JSON.

``MODE`` is ``ticks`` or ``stages``.  ``ticks`` times only the tick
step (``engine.run(1)`` plus the broker pump on the writer thread,
span ``gateway.driver.tick``), in wall time and in the writer thread's
CPU time, and notes the live tenants after it: a few clock reads per
paced tick, for the end-to-end run.
``stages`` also times the fleet layers inside each tick
(``fleetload.FLEET_LAYERS``), GC pauses, per-tick counters, and these
request stages:

- ``gateway.http.parse``: ``read_request``, from the moment the request
  head has arrived (socket waits excluded) until it returns.
- ``gateway.cache.hit`` / ``gateway.cache.miss``: the state route's
  cache lookup (``GatewayServer._serve_state``), named by whether an
  entry was cached when it started; a miss contains the populate.
- ``gateway.cache.populate``: one snapshot build for the cache.
- ``gateway.server.writer_wait``: from ``run_on_writer`` submitting a
  request dispatch until it starts on the writer thread.
- ``rest.server.dispatch``: ``EcovisorRestServer.request``.
- ``gateway.server.serialize``: rendering a response body to bytes.
- ``gateway.server.write``: ``StreamWriter.write`` until ``drain`` returns.
- ``gateway.cache.invalidate``: one cache drop.
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import signal
import sys
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from fleetload import COUNTERS, counter, install_fleet_tracer  # noqa: E402
from spans import Tracer, current_span  # noqa: E402

#: Id of the request the current connection task is handling.
_request: contextvars.ContextVar[int] = contextvars.ContextVar(
    "perfbench_request", default=-1
)


class _TimedReader:
    """A stream reader that notes when the request head has arrived."""

    def __init__(self, reader):
        self._reader = reader
        self.head_at = 0.0

    async def readuntil(self, separator):
        data = await self._reader.readuntil(separator)
        self.head_at = perf_counter()
        return data

    async def readexactly(self, n):
        return await self._reader.readexactly(n)


def install_ticks(tracer: Tracer, detail: bool) -> dict:
    """Time the tick step; returns the dict the records collect in.

    ``ticks`` gets one record per tick: ``[start, end, writer-thread
    CPU seconds, live tenants]``, with ``detail`` also
    ``Ecovisor.upcall_epoch`` and the ``COUNTERS`` after the tick.
    """
    from repro.gateway.driver import TickDriver

    records = {"ticks": []}
    step = tracer.wrap("gateway.driver.tick", TickDriver._step_on_writer)

    def timed_step(self):
        start, cpu = perf_counter(), thread_time()
        step(self)
        record = [start, perf_counter(), thread_time() - cpu,
                  len(self._engine.applications)]
        if detail:
            eco = self._gateway.ecovisor
            record.append(eco.upcall_epoch)
            record += [counter(eco, name) for name in COUNTERS.values()]
        records["ticks"].append(record)

    tracer.patch(TickDriver, "_step_on_writer", timed_step)
    return records


def install(tracer: Tracer) -> None:
    """Time the request stages listed in the module docstring."""
    import repro.gateway.server as gserver
    from repro.gateway.cache import SnapshotCache
    from repro.rest.server import EcovisorRestServer

    server_cls = gserver.GatewayServer
    request_id = _request.get
    next_request = itertools.count().__next__

    read_request = gserver.read_request

    async def timed_read_request(reader):
        timed = _TimedReader(reader)
        request = await read_request(timed)
        if request is not None:
            _request.set(next_request())
            tracer.record(
                "gateway.http.parse", timed.head_at, perf_counter(), _request.get()
            )
        return request

    tracer.patch(gserver, "read_request", timed_read_request)

    serve_state = server_cls._serve_state
    hit = tracer.wrap("gateway.cache.hit", serve_state, request_id)
    miss = tracer.wrap("gateway.cache.miss", serve_state, request_id)

    async def timed_serve_state(self, app_name, request):
        cached = self.cache.get(app_name) is not None
        return await (hit if cached else miss)(self, app_name, request)

    tracer.patch(server_cls, "_serve_state", timed_serve_state)

    run_on_writer = server_cls.run_on_writer
    dispatch = server_cls._dispatch_on_writer

    async def timed_run_on_writer(self, fn, *args):
        if getattr(fn, "__func__", None) is not dispatch:
            return await run_on_writer(self, fn, *args)
        submitted = perf_counter()
        context = contextvars.copy_context()
        rid = _request.get()
        parent = current_span()

        def on_writer(*call_args):
            tracer.record(
                "gateway.server.writer_wait", submitted, perf_counter(), rid, parent
            )
            return context.run(fn, *call_args)

        return await run_on_writer(self, on_writer, *args)

    tracer.patch(server_cls, "run_on_writer", timed_run_on_writer)

    tracer.install(EcovisorRestServer, "request", "rest.server.dispatch", request_id)
    tracer.install(server_cls, "_render", "gateway.server.serialize", request_id)
    tracer.install(
        server_cls, "_build_state_entry", "gateway.cache.populate", request_id
    )
    tracer.install(SnapshotCache, "invalidate", "gateway.cache.invalidate")

    write = asyncio.StreamWriter.write
    drain = asyncio.StreamWriter.drain
    started = {}

    def timed_write(self, data):
        started[id(self)] = perf_counter()
        return write(self, data)

    async def timed_drain(self):
        try:
            return await drain(self)
        finally:
            start = started.pop(id(self), None)
            if start is not None:
                tracer.record(
                    "gateway.server.write", start, perf_counter(), _request.get()
                )

    tracer.patch(asyncio.StreamWriter, "write", timed_write)
    tracer.patch(asyncio.StreamWriter, "drain", timed_drain)


MODES = ("ticks", "stages")


def main(argv) -> int:
    mode, out, cli_args = argv[0], argv[1], argv[2:]
    if mode not in MODES:
        raise SystemExit(f"MODE must be one of {', '.join(MODES)}, not {mode!r}")
    # SIGINT stops the server even when the parent was started with
    # SIGINT ignored (as a background job is), which Python inherits.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    tracer = Tracer()
    records = install_ticks(tracer, detail=mode == "stages")
    if mode == "stages":
        install(tracer)
        install_fleet_tracer(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(out, **records)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
