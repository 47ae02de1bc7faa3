"""Electricity-price signal service.

Utilities and ISOs publish tariff and real-time price feeds the same way
carbon information services publish intensity estimates; the ecovisor
polls both on its monitoring interval.  :class:`PriceSignal` reproduces
that interface over the synthetic traces of :mod:`repro.market.prices`,
with the same ``observe(time_s)`` shape as
:class:`~repro.carbon.service.CarbonIntensityService`: queries within
one update interval return the same cached value (a rate-limited polled
API), and a history buffer supports percentile-threshold computations.

The signal is deliberately *forecaster-compatible*: the forecasters in
:mod:`repro.carbon.forecast` only require ``observe()`` and
``intensity_at()``, so a :class:`PriceSignal` can be dropped into
:class:`~repro.carbon.forecast.OracleForecaster` (or the persistence /
diurnal variants) to derive price thresholds exactly the way carbon
thresholds are derived.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.config import PriceServiceConfig
from repro.core.errors import TraceError
from repro.market.prices import PriceTrace, make_price_trace


class PriceSignal:
    """Utility-feed-style electricity-price queries over a trace."""

    def __init__(
        self,
        config: PriceServiceConfig | None = None,
        trace: PriceTrace | None = None,
        days: int = 4,
    ):
        self._config = config or PriceServiceConfig()
        self._config.validate()
        if trace is None:
            trace = make_price_trace(
                self._config.regime, days=days, seed=self._config.seed
            )
        self._trace = trace
        self._history: List[Tuple[float, float]] = []

    @property
    def config(self) -> PriceServiceConfig:
        return self._config

    @property
    def trace(self) -> PriceTrace:
        return self._trace

    @property
    def regime(self) -> str:
        return self._trace.regime

    def price_at(self, time_s: float) -> float:
        """Price ($/kWh) at ``time_s``, quantized to update intervals.

        The feed refreshes every ``update_interval_s`` seconds; queries
        between refreshes observe the value of the most recent refresh,
        like a real polled API.
        """
        if time_s < 0:
            raise TraceError(f"time must be >= 0, got {time_s}")
        quantized = (time_s // self._config.update_interval_s) * (
            self._config.update_interval_s
        )
        return self._trace.price_at(quantized)

    def intensity_at(self, time_s: float) -> float:
        """Alias of :meth:`price_at` for forecaster compatibility.

        The :mod:`repro.carbon.forecast` classes are signal-agnostic —
        they only call ``intensity_at``/``observe`` — so this alias lets
        the same forecasters derive thresholds from the price signal.
        """
        return self.price_at(time_s)

    def observe(self, time_s: float) -> float:
        """Sample the feed and append to the history buffer."""
        value = self.price_at(time_s)
        if not self._history or self._history[-1][0] < time_s:
            self._history.append((time_s, value))
        return value

    def history(self) -> List[Tuple[float, float]]:
        """All (time_s, price) observations recorded so far."""
        return list(self._history)

    def threshold_percentile(
        self, q: float, window_start_s: float, window_end_s: float
    ) -> float:
        """Percentile of trace price over a window.

        Price-aware wait policies pick thresholds from trace percentiles
        over a lookahead window, mirroring the paper's Section 5.1
        carbon-threshold methodology (trace = perfect forecast).
        """
        return self._trace.percentile(q, window_start_s, window_end_s)

    def mean_price(self, start_s: float = 0.0, end_s: float | None = None) -> float:
        """Mean trace price over a window (for reporting and normalizing)."""
        return self._trace.mean(start_s, end_s)

    def observed_percentile(self, q: float) -> float:
        """Percentile over *observed* history only (no lookahead)."""
        if not self._history:
            raise TraceError("no observations recorded yet")
        values = np.asarray([value for _, value in self._history])
        return float(np.percentile(values, q))
