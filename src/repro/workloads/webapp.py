"""Distributed web application workload.

Models the paper's Wikipedia-hosting web applications (Section 5.2.1): a
front-end load balancer distributing requests across a pool of worker
containers, horizontally scaled by its policy.  Per tick the application:

- reads its request rate from the workload trace,
- sets each worker's demand utilization to its busy fraction (so power
  tracks load), and
- after settlement, computes the 95th-percentile latency from the M/M/c
  model using the workers' *effective* (cap-clamped) capacity scaled by
  the served-energy fraction — a power shortage shows up as latency.

Latency, request rate, worker count, and SLO violations are recorded into
the ecovisor's time-series database under ``app.<name>.*``.
"""

from __future__ import annotations


from repro.core.clock import TickInfo
from repro.workloads.base import Application
from repro.workloads.latency import percentile_latency_ms
from repro.workloads.traces import RequestTrace


class WebApplication(Application):
    """An SLO-bound, horizontally scalable web service."""

    batch_compatible = True

    def __init__(
        self,
        name: str,
        trace: RequestTrace,
        slo_ms: float = 60.0,
        service_rate_rps: float = 100.0,
        latency_percentile: float = 95.0,
    ):
        super().__init__(name)
        if slo_ms <= 0:
            raise ValueError(f"SLO must be positive, got {slo_ms}")
        if service_rate_rps <= 0:
            raise ValueError("per-worker service rate must be positive")
        self._trace = trace
        self._slo_ms = slo_ms
        self._service_rate = service_rate_rps
        self._percentile = latency_percentile
        self._current_rate_rps = 0.0
        self._tick_count = 0
        self._violation_ticks = 0
        self._latency_sum_ms = 0.0
        self._worst_latency_ms = 0.0
        self._requests_total = 0.0
        # The database and this app's three series handles in it, resolved
        # at the first write: handle appends skip the database's flush
        # hook, so a batched run's buffered telemetry is not written back
        # every tick just because this app records its own series.
        self._db = None
        self._series: tuple = ()

    # ------------------------------------------------------------------
    # Observables used by policies
    # ------------------------------------------------------------------
    @property
    def trace(self) -> RequestTrace:
        return self._trace

    @property
    def slo_ms(self) -> float:
        return self._slo_ms

    @property
    def service_rate_rps(self) -> float:
        """Per-worker service capacity at full utilization (req/s)."""
        return self._service_rate

    @property
    def latency_percentile(self) -> float:
        return self._percentile

    @property
    def current_rate_rps(self) -> float:
        """Request rate during the current tick (policies read this)."""
        return self._current_rate_rps

    # ------------------------------------------------------------------
    # Result metrics
    # ------------------------------------------------------------------
    @property
    def violation_ticks(self) -> int:
        return self._violation_ticks

    @property
    def tick_count(self) -> int:
        return self._tick_count

    @property
    def violation_fraction(self) -> float:
        if self._tick_count == 0:
            return 0.0
        return self._violation_ticks / self._tick_count

    @property
    def mean_latency_ms(self) -> float:
        if self._tick_count == 0:
            return 0.0
        return self._latency_sum_ms / self._tick_count

    @property
    def worst_latency_ms(self) -> float:
        return self._worst_latency_ms

    @property
    def requests_total(self) -> float:
        return self._requests_total

    # ------------------------------------------------------------------
    # Engine protocol
    # ------------------------------------------------------------------
    def step(self, tick: TickInfo, duration_s: float) -> None:
        self._current_rate_rps = self._trace.rate_at(tick.start_s)
        containers = self.running_containers()
        n = len(containers)
        if n == 0:
            return
        # Each worker's busy fraction: its share of the arrival rate over
        # its full-utilization capacity.
        busy = min(1.0, self._current_rate_rps / (n * self._service_rate))
        for container in containers:
            container.set_demand_utilization(busy)

    def finish_tick(
        self, tick: TickInfo, duration_s: float, served_fraction: float
    ) -> None:
        containers = self.running_containers()
        n = len(containers)
        self._tick_count += 1
        if n == 0:
            # No capacity: an outage if there is real load.  Sub-1-rps
            # trickles (e.g. a monitoring app at dawn) are not counted as
            # outages — there is effectively nothing to serve.
            latency_ms = (
                0.0 if self._current_rate_rps < 1.0 else 60000.0
            )
        else:
            # Effective per-worker rate: the power cap limits how busy a
            # worker may run; a served-energy shortfall brownouts the pool.
            mean_cap = sum(c.cap_utilization for c in containers) / n
            effective_rate = (
                self._service_rate
                * mean_cap
                * max(0.0, min(1.0, served_fraction))
            )
            latency_ms = percentile_latency_ms(
                self._current_rate_rps, n, max(effective_rate, 1e-9),
                self._percentile,
            )
        violated = latency_ms > self._slo_ms
        if violated and self._current_rate_rps > 0:
            self._violation_ticks += 1
        self._latency_sum_ms += latency_ms
        self._worst_latency_ms = max(self._worst_latency_ms, latency_ms)
        self._requests_total += self._current_rate_rps * duration_s
        db = self.api.ecovisor.database
        if db is not self._db:
            self._db = db
            self._series = tuple(
                db.series_handle(f"app.{self.name}.{metric}")
                for metric in ("p95_ms", "request_rate_rps", "slo_violated")
            )
        latency, rate, slo = self._series
        t = tick.start_s
        latency.append(t, latency_ms)
        rate.append(t, self._current_rate_rps)
        slo.append(t, 1.0 if violated else 0.0)

    # ------------------------------------------------------------------
    # Vectorized engine protocol (core/upcalls.py)
    # ------------------------------------------------------------------
    # The M/M/c percentile-latency model is inherently per-app scalar
    # math, so the class opts into grouped delivery (its effects are
    # app-local: own containers' demand, own counters, app-unique db
    # keys) but the kernels simply delegate member by member.

    @classmethod
    def step_batch(cls, tick: TickInfo, duration_s: float, rows) -> None:
        for app in rows.apps:
            app.step(tick, duration_s)

    @classmethod
    def finish_tick_batch(
        cls, tick: TickInfo, duration_s: float, fractions, rows
    ) -> None:
        for app, fraction in zip(rows.apps, rows.served(fractions).tolist()):
            app.finish_tick(tick, duration_s, fraction)

    def workers_needed_for_slo(self, max_workers: int = 64) -> int:
        """Sizing helper: workers needed for the SLO at the current rate."""
        from repro.workloads.latency import min_servers_for_slo

        return min_servers_for_slo(
            self._current_rate_rps,
            self._service_rate,
            self._slo_ms,
            self._percentile,
            max_workers,
        )
