"""Wait&Scale with a *forecast-derived* threshold.

The paper (and our Figure 4 scenarios) compute the carbon threshold
from the trace itself — i.e., with perfect foresight.  A deployable
policy must instead derive the threshold from a forecast and refresh it
as observations accumulate.  This policy re-derives its percentile
threshold every ``refresh_interval_s`` from a
:class:`~repro.carbon.forecast.CarbonForecaster`, and otherwise behaves
exactly like :class:`~repro.policies.wait_and_scale.WaitAndScalePolicy`.

The imperfect-foresight cost is quantified by the
``ablation_forecast`` scenario.  The compared signal is named
by two class attributes, so
:class:`~repro.policies.price_threshold.PriceThresholdPolicy` runs the
same rule against the grid price.
"""

from __future__ import annotations

import numpy as np

from repro.carbon.forecast import CarbonForecaster
from repro.core.clock import TickInfo
from repro.core.state import EnergyState
from repro.policies.base import Policy


class ForecastWaitAndScalePolicy(Policy):
    """Suspend above a forecast-percentile threshold; scale below it."""

    batch_compatible = True
    #: The :class:`EnergyState` field :meth:`on_tick` compares, and the
    #: :class:`~repro.core.upcalls.TickSignals` column the batch kernel
    #: compares: the same signal, read per app and per class.
    state_field = "grid_carbon_g_per_kwh"
    tick_signal = "carbon"

    def __init__(
        self,
        forecaster: CarbonForecaster,
        percentile: float,
        window_s: float,
        base_workers: int,
        scale_factor: float,
        cores_per_worker: float = 1.0,
        refresh_interval_s: float = 3600.0,
    ):
        super().__init__()
        if not 0.0 < percentile < 100.0:
            raise ValueError(f"percentile must be in (0, 100), got {percentile}")
        if window_s <= 0:
            raise ValueError("forecast window must be positive")
        if base_workers <= 0:
            raise ValueError("base workers must be positive")
        if scale_factor < 1.0:
            raise ValueError("scale factor must be >= 1")
        if refresh_interval_s <= 0:
            raise ValueError("refresh interval must be positive")
        self._forecaster = forecaster
        self._percentile = percentile
        self._window_s = window_s
        self._base_workers = base_workers
        self._scale_factor = scale_factor
        self._cores = cores_per_worker
        self._refresh_interval_s = refresh_interval_s
        self._threshold: float | None = None
        self._last_refresh_s = -float("inf")

    @property
    def current_threshold(self) -> float | None:
        """The threshold currently in force (None before the first tick)."""
        return self._threshold

    @property
    def scaled_workers(self) -> int:
        return int(round(self._base_workers * self._scale_factor))

    def _maybe_refresh(self, now_s: float) -> None:
        if now_s - self._last_refresh_s < self._refresh_interval_s:
            return
        self._threshold = self._forecaster.percentile(
            now_s, self._window_s, self._percentile
        )
        self._last_refresh_s = now_s

    def on_tick(self, tick: TickInfo, state: EnergyState) -> None:
        self._forecaster.observe(tick.start_s)
        self._maybe_refresh(tick.start_s)
        if self.app.is_complete:
            if self.current_worker_count() > 0:
                self.scale_workers(0, self._cores)
            return
        value = getattr(state, self.state_field)
        assert self._threshold is not None  # set by _maybe_refresh
        target = 0 if value > self._threshold else self.scaled_workers
        if self.current_worker_count() != target:
            self.scale_workers(target, self._cores)

    @classmethod
    def on_tick_batch(cls, tick, signals, rows) -> None:
        """Vectorized :meth:`on_tick`.

        Forecaster observation and threshold refresh are per-instance
        (each member owns its forecaster) and run for *every* member —
        the scalar body does both before the completion check.
        """
        for policy in rows.policies:
            policy._forecaster.observe(tick.start_s)
            policy._maybe_refresh(tick.start_s)
        thresholds = np.fromiter(
            (p._threshold for p in rows.policies), dtype=float, count=rows.n
        )
        targets = np.where(
            getattr(signals, cls.tick_signal) > thresholds,
            0,
            rows.col_int("scaled_workers"),
        )
        rows.stage_scale(targets)
