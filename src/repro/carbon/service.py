"""Carbon information service.

Third-party services such as electricityMap and WattTime provide
real-time, location-specific estimates of grid carbon-intensity; the
paper's ecovisor polls them every five minutes (Section 2, 'Monitoring
Carbon').  This class reproduces that interface over synthetic traces:
queries within one update interval return the same cached value, exactly
like polling a rate-limited external API, and a history buffer supports
the percentile-threshold computations the Section 5 policies use.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.carbon.traces import CarbonTrace, make_region_trace
from repro.core.config import CarbonServiceConfig
from repro.core.errors import TraceError


class CarbonIntensityService:
    """electricityMap-style carbon-intensity queries over a trace."""

    def __init__(
        self,
        config: CarbonServiceConfig | None = None,
        trace: CarbonTrace | None = None,
        days: int = 4,
    ):
        self._config = config or CarbonServiceConfig()
        self._config.validate()
        if trace is None:
            trace = make_region_trace(
                self._config.region, days=days, seed=self._config.seed
            )
        self._trace = trace
        self._history: List[Tuple[float, float]] = []

    @property
    def config(self) -> CarbonServiceConfig:
        return self._config

    @property
    def trace(self) -> CarbonTrace:
        return self._trace

    @property
    def region(self) -> str:
        return self._trace.region

    def intensity_at(self, time_s: float) -> float:
        """Carbon intensity (g/kWh) at ``time_s``, quantized to updates.

        The service refreshes every ``update_interval_s`` seconds; queries
        between refreshes observe the value of the most recent refresh,
        like a real polled API.
        """
        if time_s < 0:
            raise TraceError(f"time must be >= 0, got {time_s}")
        quantized = (time_s // self._config.update_interval_s) * (
            self._config.update_interval_s
        )
        return self._trace.intensity_at(quantized)

    def observe(self, time_s: float) -> float:
        """Sample the service and append to the history buffer."""
        value = self.intensity_at(time_s)
        if not self._history or self._history[-1][0] < time_s:
            self._history.append((time_s, value))
        return value

    def history(self) -> List[Tuple[float, float]]:
        """All (time_s, intensity) observations recorded so far."""
        return list(self._history)

    def threshold_percentile(
        self, q: float, window_start_s: float, window_end_s: float
    ) -> float:
        """Percentile of trace intensity over a window.

        Section 5.1 sets suspend/resume thresholds from trace percentiles
        (30th over 48 h for ML training; 33rd over the trace for BLAST).
        Real deployments would use a forecast; the paper (and we) use the
        trace itself, which is equivalent to a perfect forecast and is the
        stated methodology.
        """
        return self._trace.percentile(q, window_start_s, window_end_s)

    def mean_intensity(self, start_s: float = 0.0, end_s: float | None = None) -> float:
        """Mean trace intensity over a window (for reporting)."""
        return self._trace.mean(start_s, end_s)

    def observed_percentile(self, q: float) -> float:
        """Percentile over *observed* history only (no lookahead)."""
        if not self._history:
            raise TraceError("no observations recorded yet")
        values = np.asarray([value for _, value in self._history])
        return float(np.percentile(values, q))
