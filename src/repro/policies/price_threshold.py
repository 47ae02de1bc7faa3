"""Wait&Scale against the electricity *price* signal.

The market analogue of the paper's Wait&Scale carbon policy (Section
5.1): suspend execution while the grid price is above a percentile
threshold, and run scaled up while it is below — riding out time-of-use
on-peak windows and real-time price spikes, then exploiting cheap
midday-solar hours.

The threshold is re-derived from a forecaster every
``refresh_interval_s``, reusing the :mod:`repro.carbon.forecast`
machinery unchanged: those forecasters are signal-agnostic, so passing
one constructed over a :class:`~repro.market.service.PriceSignal`
(``OracleForecaster(price_signal)`` matches the paper's perfect-forecast
methodology) yields price thresholds exactly the way carbon thresholds
are derived.
"""

from __future__ import annotations

from repro.policies.forecast_threshold import ForecastWaitAndScalePolicy


class PriceThresholdPolicy(ForecastWaitAndScalePolicy):
    """Suspend above a forecast price-percentile; scale up below it.

    :attr:`current_threshold` is in $/kWh.
    """

    # Opted in again here: the upcall plane reads the flag from the
    # class's own ``__dict__``, so subclasses do not inherit it.
    batch_compatible = True
    state_field = "grid_price_usd_per_kwh"
    tick_signal = "price"
