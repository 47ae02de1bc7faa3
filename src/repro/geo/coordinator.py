"""Geo-distributed ecovisor coordination (paper Section 7, future work).

The paper closes with: "In the future, we plan to enable coordination
between distributed ecovisor clusters to enable geo-distributed
applications", and Section 3.2 sketches the shape — library-level
policies that "shift workload to the site(s) with the lowest
carbon-intensity or most renewable availability".

This module implements that layer for delay-tolerant batch work:

- :class:`SharedWorkPool` — one pool of work units consumable from any
  site (the global job state a geo-distributed framework replicates).
- :class:`GeoWorkerJob` — the per-site application: its workers draw
  from the shared pool; per-site energy/carbon is accounted by that
  site's own ecovisor.
- :class:`GeoCoordinator` — runs several sites' engines in lockstep and
  places the worker pool at the currently cleanest site, paying a
  migration delay (checkpoint transfer) whenever the home site changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.clock import TickInfo
from repro.core.config import ShareConfig
from repro.core.errors import ConfigurationError, SimulationError
from repro.sim.experiment import Environment
from repro.workloads.base import Application


class SharedWorkPool:
    """A global pool of work units consumable from any site."""

    def __init__(self, total_units: float):
        if total_units <= 0:
            raise ValueError(f"total work must be positive, got {total_units}")
        self._total = float(total_units)
        self._consumed = 0.0

    @property
    def total_units(self) -> float:
        return self._total

    @property
    def remaining_units(self) -> float:
        return max(0.0, self._total - self._consumed)

    @property
    def is_complete(self) -> bool:
        return self._consumed >= self._total - 1e-9

    def draw(self, units: float) -> float:
        """Consume up to ``units``; returns the amount actually drawn."""
        if units < 0:
            raise ValueError(f"units must be >= 0, got {units}")
        drawn = min(units, self.remaining_units)
        self._consumed += drawn
        return drawn


class GeoWorkerJob(Application):
    """One site's worker pool, drawing from the shared work pool."""

    def __init__(
        self,
        name: str,
        pool: SharedWorkPool,
        worker_rate_units_per_s: float = 1.0,
    ):
        super().__init__(name)
        if worker_rate_units_per_s <= 0:
            raise ValueError("worker rate must be positive")
        self._pool = pool
        self._rate = worker_rate_units_per_s
        self._units_done_here = 0.0

    @property
    def pool(self) -> SharedWorkPool:
        return self._pool

    @property
    def units_done_here(self) -> float:
        """Work this site contributed (for placement accounting)."""
        return self._units_done_here

    @property
    def is_complete(self) -> bool:
        return self._pool.is_complete

    def step(self, tick: TickInfo, duration_s: float) -> None:
        busy = 0.0 if self._pool.is_complete else 1.0
        for container in self.worker_containers():
            container.set_demand_utilization(busy)

    def finish_tick(
        self, tick: TickInfo, duration_s: float, served_fraction: float
    ) -> None:
        if self._pool.is_complete:
            return
        utils = [c.effective_utilization for c in self.worker_containers()]
        produced = (
            self._rate * sum(utils) * duration_s
            * max(0.0, min(1.0, served_fraction))
        )
        self._units_done_here += self._pool.draw(produced)


@dataclass
class GeoRunResult:
    """Outcome of a geo-coordinated run."""

    completed: bool
    runtime_s: float
    total_carbon_g: float
    carbon_by_site: Dict[str, float]
    work_by_site: Dict[str, float]
    migrations: int


class GeoCoordinator:
    """Places a batch worker pool at the cleanest of several sites.

    Each site is a fully independent ecovisor deployment (its own plant,
    platform, carbon region, and ledger).  The coordinator advances all
    sites' engines in lockstep and, every tick, compares current grid
    carbon-intensity across sites.  When a cleaner site beats the
    current home by at least ``switch_threshold_g_per_kwh``, the pool
    migrates: the old site scales to zero and the new site starts after
    ``migration_delay_ticks`` (checkpoint/state transfer time), during
    which no work happens anywhere.
    """

    def __init__(
        self,
        sites: Dict[str, Environment],
        workers: int = 8,
        cores_per_worker: float = 1.0,
        migration_delay_ticks: int = 5,
        switch_threshold_g_per_kwh: float = 20.0,
    ):
        if len(sites) < 2:
            raise ConfigurationError("geo coordination needs at least two sites")
        if workers <= 0:
            raise ConfigurationError("workers must be positive")
        if migration_delay_ticks < 0:
            raise ConfigurationError("migration delay must be >= 0")
        self._sites = dict(sites)
        self._workers = workers
        self._cores = cores_per_worker
        self._migration_delay_ticks = migration_delay_ticks
        self._switch_threshold = switch_threshold_g_per_kwh
        self._jobs: Dict[str, GeoWorkerJob] = {}
        self._pool: Optional[SharedWorkPool] = None
        self._home: Optional[str] = None
        self._pause_remaining = 0
        self._migrations = 0

    @property
    def migrations(self) -> int:
        return self._migrations

    def submit(self, total_work_units: float) -> SharedWorkPool:
        """Create the shared pool and register a worker job at every site."""
        if self._pool is not None:
            raise SimulationError("a job is already submitted")
        self._pool = SharedWorkPool(total_work_units)
        for site_name, env in self._sites.items():
            job = GeoWorkerJob(f"geo-{site_name}", self._pool)
            env.engine.add_application(
                job, ShareConfig(grid_power_w=float("inf"))
            )
            self._jobs[site_name] = job
        return self._pool

    def _intensities(self, time_s: float) -> Dict[str, float]:
        return {
            name: env.carbon_service.intensity_at(time_s)
            for name, env in self._sites.items()
        }

    def _choose_home(self, time_s: float) -> str:
        intensities = self._intensities(time_s)
        cleanest = min(intensities, key=lambda n: (intensities[n], n))
        if self._home is None:
            return cleanest
        # Hysteresis: only migrate for a clear win.
        if (
            intensities[self._home] - intensities[cleanest]
            > self._switch_threshold
        ):
            return cleanest
        return self._home

    def _place(self, site_name: str) -> None:
        for name, job in self._jobs.items():
            count = self._workers if name == site_name else 0
            job.api.scale_to(count, self._cores)

    def run(self, max_ticks: int) -> GeoRunResult:
        """Run all sites in lockstep until the pool drains or ticks end."""
        if self._pool is None:
            raise SimulationError("submit() a job before running")
        runtime_s = float("inf")
        for _ in range(max_ticks):
            now_s = next(iter(self._sites.values())).engine.clock.now_s
            if not self._pool.is_complete:
                target = self._choose_home(now_s)
                if target != self._home:
                    if self._home is not None:
                        self._migrations += 1
                        self._pause_remaining = self._migration_delay_ticks
                    self._home = target
                if self._pause_remaining > 0:
                    self._pause_remaining -= 1
                    self._place("<nowhere>")
                else:
                    self._place(self._home)
            else:
                self._place("<nowhere>")
            for env in self._sites.values():
                env.engine.run(1)
            if self._pool.is_complete and runtime_s == float("inf"):
                runtime_s = next(
                    iter(self._sites.values())
                ).engine.clock.now_s
                break
        # Per-site accounting from the apps' finalized per-tick snapshots
        # (the same cumulative ledger figures every other consumer reads).
        carbon_by_site = {
            name: env.ecovisor.state_for(f"geo-{name}").total_carbon_g
            for name, env in self._sites.items()
        }
        return GeoRunResult(
            completed=self._pool.is_complete,
            runtime_s=runtime_s,
            total_carbon_g=sum(carbon_by_site.values()),
            carbon_by_site=carbon_by_site,
            work_by_site={
                name: job.units_done_here for name, job in self._jobs.items()
            },
            migrations=self._migrations,
        )
