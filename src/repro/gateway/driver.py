"""Tick stepping under a live gateway.

The engine and the API handlers must never run concurrently — tick
determinism is the repo's core invariant.  The driver therefore steps
the engine **one tick at a time on the gateway's writer thread**: each
step is one executor task, serialized against every dispatched handler,
so a run under load interleaves as

    [tick 0] [requests...] [tick 1] [requests...] ...

exactly like a single-threaded program.  Stepwise ``run(1)`` is
byte-identical to one ``run(N)``: the engine primes its signal cache
per call from ``(clock.tick_index + arange(n)) * dt``, the same
arithmetic either way (pinned by the gateway determinism test and the
stepwise parity suite).

A step also costs what a tick inside ``run(N)`` costs.  The columnar
fleet keeps its layout across calls and re-derives it only after an
admission, eviction or share change.  The buffered records are written
back per store, not once per step: the ledger at its first read (an
admin admission or eviction makes one), the database at its first read
(a Table 2 library query), when the whole backlog stacks into frames.
The ``telemetry_pending_records`` gauge shows the database's backlog.

After each tick the driver pumps the stream broker (on the writer
thread) and drops the whole snapshot cache (back on the event loop, so
``await driver.step()`` guarantees the next poll sees the new tick).
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.gateway.server import GatewayServer
    from repro.sim.engine import SimulationEngine


class TickDriver:
    """Steps a :class:`SimulationEngine` through a gateway's writer."""

    def __init__(
        self,
        gateway: "GatewayServer",
        engine: "SimulationEngine",
        tick_interval_seconds: float = 0.0,
    ):
        self._gateway = gateway
        self._engine = engine
        self._interval = tick_interval_seconds
        self.ticks_run = 0

    async def step(self) -> None:
        """One tick: engine + broker pump on the writer, then cache drop."""
        await self._gateway.run_on_writer(self._step_on_writer)
        self._gateway.cache.invalidate()
        self.ticks_run += 1

    def _step_on_writer(self) -> None:
        self._engine.run(1)
        self._gateway.broker.pump()

    async def run(self, ticks: int) -> int:
        """Run ``ticks`` ticks, sleeping the wall-clock interval between."""
        for _ in range(ticks):
            await self.step()
            if self._interval > 0:
                await asyncio.sleep(self._interval)
        return ticks
