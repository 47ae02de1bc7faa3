"""Units and conversions used throughout the ecovisor reproduction.

Canonical internal units, chosen once so every module agrees:

- power:            watts (W)
- energy:           watt-hours (Wh)
- carbon mass:      grams of CO2-equivalent (g)
- carbon intensity: grams of CO2-equivalent per kilowatt-hour (g/kWh)
- time:             seconds (s)

The paper's Table 1 lists kW/kWh because it targets datacenter scale; the
authors' own hardware prototype (like ours) operates at single-digit watts,
so the canonical unit here is the watt.  Helpers below convert between the
two for display and for API parity.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add

import numpy as np

SECONDS_PER_MINUTE = 60.0
SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0
HOURS_PER_DAY = 24.0

WATTS_PER_KILOWATT = 1000.0
WH_PER_KWH = 1000.0
MILLIGRAMS_PER_GRAM = 1000.0
JOULES_PER_WH = 3600.0


def watts_to_kilowatts(watts: float) -> float:
    """Convert a power value in watts to kilowatts."""
    return watts / WATTS_PER_KILOWATT


def kilowatts_to_watts(kilowatts: float) -> float:
    """Convert a power value in kilowatts to watts."""
    return kilowatts * WATTS_PER_KILOWATT


def wh_to_kwh(watt_hours: float) -> float:
    """Convert an energy value in watt-hours to kilowatt-hours."""
    return watt_hours / WH_PER_KWH


def seconds_to_hours(seconds: float) -> float:
    """Convert a duration in seconds to hours."""
    return seconds / SECONDS_PER_HOUR


def energy_wh(power_w: float, duration_s: float) -> float:
    """Energy (Wh) delivered by ``power_w`` watts over ``duration_s`` seconds."""
    return power_w * seconds_to_hours(duration_s)


def power_w(energy_wh_value: float, duration_s: float) -> float:
    """Average power (W) that delivers ``energy_wh_value`` Wh in ``duration_s``."""
    if not duration_s > 0.0:
        raise ValueError(f"duration must be positive, got {duration_s}")
    return energy_wh_value / seconds_to_hours(duration_s)


def carbon_grams(energy_wh_value: float, intensity_g_per_kwh: float) -> float:
    """Carbon mass (g) emitted by ``energy_wh_value`` Wh at the given intensity.

    Intensity is expressed in g/kWh, the unit reported by carbon information
    services such as electricityMap (paper Figure 1).
    """
    return wh_to_kwh(energy_wh_value) * intensity_g_per_kwh


def energy_cost_usd(energy_wh_value: float, price_usd_per_kwh: float) -> float:
    """Cost ($) of buying ``energy_wh_value`` Wh at the given price.

    Price is expressed in $/kWh, the unit utilities and ISOs quote
    (time-of-use tariffs, real-time wholesale prices).  This is the
    billing analogue of :func:`carbon_grams`.
    """
    return wh_to_kwh(energy_wh_value) * price_usd_per_kwh


def carbon_rate_mg_per_s(power_w_value: float, intensity_g_per_kwh: float) -> float:
    """Instantaneous carbon rate (mg/s) for a power draw at a grid intensity.

    This is the quantity the paper's Figure 7(a) plots and the rate-limiting
    policies of Section 5.2 cap (the paper uses a 20 mg/s target).
    """
    grams_per_hour = watts_to_kilowatts(power_w_value) * intensity_g_per_kwh
    return grams_per_hour * MILLIGRAMS_PER_GRAM / SECONDS_PER_HOUR


def power_for_carbon_rate(rate_mg_per_s: float, intensity_g_per_kwh: float) -> float:
    """Maximum power (W) that stays within a carbon rate at a given intensity.

    Inverse of :func:`carbon_rate_mg_per_s`; used by rate-limiting policies
    to turn a mg/s cap into a power cap.  Returns ``inf`` when the grid is
    carbon-free (any power is within the cap).
    """
    if intensity_g_per_kwh <= 0.0:
        return math.inf
    grams_per_hour = rate_mg_per_s * SECONDS_PER_HOUR / MILLIGRAMS_PER_GRAM
    return kilowatts_to_watts(grams_per_hour / intensity_g_per_kwh)


def clamp(value: float, low: float, high: float) -> float:
    """Clamp ``value`` into the inclusive interval [low, high]."""
    if low > high:
        raise ValueError(f"empty clamp interval [{low}, {high}]")
    return max(low, min(high, value))


def sequential_sum(values):
    """``values`` added one by one, left to right, starting from int ``0``.

    The columnar kernels replay the object path's running sums in the
    same IEEE order, so those sums must not be builtin ``sum``: since
    Python 3.12 it adds floats with Neumaier compensation, which can
    round differently.  This keeps the order (and the bits) that
    ``sum`` gave through 3.11, including int ``0`` for an empty input.
    An ndarray is accumulated in C: ``np.add.accumulate`` is a
    sequential scan, and adding the final ``0`` maps an all ``-0.0``
    input to ``0.0``, as starting from ``0`` does.
    """
    if isinstance(values, np.ndarray):
        return np.add.accumulate(values)[-1].item() + 0 if values.size else 0
    return reduce(add, values, 0)


def format_duration(seconds: float) -> str:
    """Render a duration as a compact human-readable string (e.g. '1h 30m')."""
    seconds = int(round(seconds))
    days, rem = divmod(seconds, int(SECONDS_PER_DAY))
    hours, rem = divmod(rem, int(SECONDS_PER_HOUR))
    minutes, secs = divmod(rem, int(SECONDS_PER_MINUTE))
    parts = []
    if days:
        parts.append(f"{days}d")
    if hours:
        parts.append(f"{hours}h")
    if minutes:
        parts.append(f"{minutes}m")
    if secs or not parts:
        parts.append(f"{secs}s")
    return " ".join(parts)
