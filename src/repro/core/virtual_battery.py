"""Virtual batteries.

Each application receives a share of the physical battery's energy and
power capacity (paper Section 3.3).  A virtual battery is implemented as
a correctly scaled battery model: capacity, charge-rate limit, and
discharge-rate limit are all the application's fraction of the physical
values, so the sum of virtual limits can never exceed the physical limits
— this is precisely how the ecovisor "multiplexes control of the physical
energy system", by computing aggregate limits across applications.

On top of the scaled physical model sit the two application-controlled
knobs from Table 1: ``set_battery_charge_rate`` (grid-supplemented
charging target, "until full") and ``set_battery_max_discharge`` (cap on
discharge power).
"""

from __future__ import annotations

from repro.core.config import BatteryConfig
from repro.energy.battery import Battery


def scaled_battery_config(physical: BatteryConfig, fraction: float) -> BatteryConfig:
    """The battery config describing a ``fraction`` share of ``physical``."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"battery share fraction must be in (0, 1], got {fraction}")
    return BatteryConfig(
        capacity_wh=physical.capacity_wh * fraction,
        empty_soc_fraction=physical.empty_soc_fraction,
        max_charge_c_rate=physical.max_charge_c_rate,
        max_discharge_c_rate=physical.max_discharge_c_rate,
        charge_efficiency=physical.charge_efficiency,
        discharge_efficiency=physical.discharge_efficiency,
        initial_soc_fraction=physical.initial_soc_fraction,
    )


class VirtualBattery:
    """An application's battery share plus its software control knobs."""

    #: Process-wide generation counter of the Table 1 knobs, bumped by
    #: :meth:`set_charge_rate` and :meth:`set_max_discharge`: the
    #: columnar kernel caches the knob columns until it moves.  The
    #: per-tick methods write battery state, so they bump
    #: :attr:`Battery._write_epoch` instead.
    _knob_epoch = 0

    def __init__(self, physical_config: BatteryConfig, fraction: float):
        self._fraction = fraction
        self._battery = Battery(scaled_battery_config(physical_config, fraction))
        self._charge_rate_w = 0.0
        self._max_discharge_w = self._battery.max_discharge_power_w
        self._last_discharge_w = 0.0
        self._last_charge_w = 0.0

    # ------------------------------------------------------------------
    # Shares and physical limits
    # ------------------------------------------------------------------
    @property
    def fraction(self) -> float:
        """Share of the physical battery allocated to this application."""
        return self._fraction

    @property
    def battery(self) -> Battery:
        """The underlying scaled battery model."""
        return self._battery

    @property
    def capacity_wh(self) -> float:
        return self._battery.capacity_wh

    @property
    def usable_wh(self) -> float:
        """Usable stored energy (what ``state().battery_charge_level_wh`` reports)."""
        return self._battery.usable_wh

    @property
    def usable_capacity_wh(self) -> float:
        return self._battery.usable_capacity_wh

    @property
    def soc_fraction(self) -> float:
        return self._battery.soc_fraction

    @property
    def is_full(self) -> bool:
        return self._battery.is_full

    @property
    def is_empty(self) -> bool:
        return self._battery.is_empty

    # ------------------------------------------------------------------
    # Application-controlled knobs (Table 1 setters)
    # ------------------------------------------------------------------
    @property
    def charge_rate_w(self) -> float:
        """Grid-supplemented charging target set by the application."""
        return self._charge_rate_w

    def set_charge_rate(self, watts: float) -> None:
        """``set_battery_charge_rate``: charge at ``watts`` until full.

        Solar excess always charges the battery automatically; this knob
        additionally tops charging up to ``watts`` using grid power (whose
        carbon is attributed to the application).
        """
        if not watts >= 0:
            raise ValueError(f"charge rate must be >= 0, got {watts}")
        self._charge_rate_w = min(watts, self._battery.max_charge_power_w)
        VirtualBattery._knob_epoch += 1

    @property
    def max_discharge_w(self) -> float:
        """Application cap on discharge power."""
        return self._max_discharge_w

    def set_max_discharge(self, watts: float) -> None:
        """``set_battery_max_discharge``: cap discharge power at ``watts``."""
        if not watts >= 0:
            raise ValueError(f"max discharge must be >= 0, got {watts}")
        self._max_discharge_w = min(watts, self._battery.max_discharge_power_w)
        VirtualBattery._knob_epoch += 1

    # ------------------------------------------------------------------
    # Settlement-facing operations
    # ------------------------------------------------------------------
    @property
    def last_discharge_w(self) -> float:
        """Discharge power during the most recent settled tick."""
        return self._last_discharge_w

    @property
    def last_charge_w(self) -> float:
        """Charge power during the most recent settled tick."""
        return self._last_charge_w

    def discharge_for_tick(self, requested_power_w: float, duration_s: float) -> float:
        """Discharge up to the app's cap; returns delivered power (W)."""
        limited = min(requested_power_w, self._max_discharge_w)
        delivered = self._battery.discharge(limited, duration_s) if limited > 0 else 0.0
        self._last_discharge_w = delivered
        Battery._write_epoch += 1
        return delivered

    def charge_for_tick(self, offered_power_w: float, duration_s: float) -> float:
        """Charge from an offered power source; returns accepted power (W)."""
        accepted = (
            self._battery.charge(offered_power_w, duration_s)
            if offered_power_w > 0
            else 0.0
        )
        self._last_charge_w = accepted
        Battery._write_epoch += 1
        return accepted

    def note_tick_charge(self, total_accepted_w: float) -> None:
        """Record the combined charge power for the tick (solar + grid)."""
        self._last_charge_w = total_accepted_w
        Battery._write_epoch += 1

    def rescaled(
        self, physical_config: BatteryConfig, fraction: float
    ) -> "VirtualBattery":
        """A new virtual battery holding ``fraction`` of the physical bank.

        Used by share rebalancing (:meth:`Ecovisor.set_share`): the new
        share inherits this battery's absolute stored energy (clamped to
        the new capacity — energy beyond a shrunken share returns to the
        unallocated pool) and the application's charge-rate and
        max-discharge knobs, re-clamped to the new physical limits.
        """
        rescaled = VirtualBattery(physical_config, fraction)
        rescaled._battery.set_level_wh(self._battery.level_wh)
        rescaled.set_charge_rate(self._charge_rate_w)
        if self._max_discharge_w < self._battery.max_discharge_power_w:
            # The app lowered the knob below its old physical limit:
            # keep the explicit cap.  An untouched knob (== the old
            # limit) tracks the new share's physical limit instead.
            rescaled.set_max_discharge(self._max_discharge_w)
        return rescaled

    def __repr__(self) -> str:
        return (
            f"VirtualBattery(share={self._fraction:.0%}, "
            f"usable={self.usable_wh:.1f}Wh, "
            f"charge_rate={self._charge_rate_w:.1f}W, "
            f"max_discharge={self._max_discharge_w:.1f}W)"
        )
