"""The per-application virtual energy system.

Each application's virtual energy system (VES) exposes an API functionally
equivalent to the underlying physical energy system: a virtual grid
connection, a virtual solar array (a share of the physical array's
variable output), and a virtual battery (paper Section 3.1).

The settlement order is fixed by the paper:

1. Virtual solar power is always used first to satisfy demand.
2. Remaining demand draws from the virtual battery, up to the
   application's configured maximum discharge rate.
3. Any residual demand draws grid power, whose carbon is attributed to
   the application.
4. Excess solar automatically charges the virtual battery; if the
   application configured a charge rate above the excess solar power, the
   VES supplements charging with grid power (also attributed).
5. Solar the battery cannot absorb is curtailed (the prototype does not
   net-meter).

The system is *energy-conserving*: every settled tick satisfies the
conservation identities checked in :class:`~repro.core.accounting`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.accounting import TickSettlement
from repro.core.config import ShareConfig
from repro.core.units import carbon_grams, energy_cost_usd, energy_wh, power_w
from repro.core.virtual_battery import VirtualBattery


class VirtualEnergySystem:
    """One application's virtual grid + solar + battery."""

    def __init__(
        self,
        app_name: str,
        share: ShareConfig,
        virtual_battery: Optional[VirtualBattery] = None,
    ):
        share.validate()
        self._app_name = app_name
        self._share = share
        self._battery = virtual_battery
        self._current_solar_w = 0.0
        self._last_grid_power_w = 0.0

    # ------------------------------------------------------------------
    # Introspection (backs the Table 1 getters)
    # ------------------------------------------------------------------
    @property
    def app_name(self) -> str:
        return self._app_name

    @property
    def share(self) -> ShareConfig:
        return self._share

    @property
    def battery(self) -> Optional[VirtualBattery]:
        return self._battery

    @property
    def has_battery(self) -> bool:
        return self._battery is not None

    @property
    def solar_power_w(self) -> float:
        """Virtual solar output available for the current tick."""
        return self._current_solar_w

    @property
    def grid_power_w(self) -> float:
        """Grid power drawn during the most recently settled tick."""
        return self._last_grid_power_w

    # ------------------------------------------------------------------
    # Per-tick operations (called by the ecovisor)
    # ------------------------------------------------------------------
    def update_solar(self, physical_solar_w: float) -> float:
        """Set the tick's virtual solar power from the physical output."""
        self._current_solar_w = physical_solar_w * self._share.solar_fraction
        return self._current_solar_w

    def set_share(
        self, share: ShareConfig, virtual_battery: Optional[VirtualBattery]
    ) -> None:
        """Rebalance this system to a new share (applied by the ecovisor).

        The ecovisor validates aggregate allocations and builds the
        rescaled virtual battery (or ``None`` when the new share drops
        the battery) before calling; this only swaps the views.  The
        current tick's virtual solar is left untouched — the new solar
        fraction takes effect at the next ``update_solar``, i.e. the
        next tick boundary.
        """
        share.validate()
        self._share = share
        self._battery = virtual_battery

    def settle(
        self,
        demand_w: float,
        carbon_intensity_g_per_kwh: float,
        time_s: float,
        duration_s: float,
        price_usd_per_kwh: float = 0.0,
    ) -> TickSettlement:
        """Settle one tick: route energy to demand, charge/curtail, attribute.

        ``demand_w`` is the application's measured power draw (already
        capped by container power caps).  ``price_usd_per_kwh`` is the
        grid price in force this tick (zero when no market is attached);
        grid energy — load plus grid-supplemented battery charging — is
        billed at it.  Returns the validated settlement.  ``duration_s``
        must be positive (a NaN is refused with the rest), as every
        :class:`~repro.core.clock.TickInfo` is.
        """
        if not duration_s > 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        if demand_w < 0:
            raise ValueError(f"demand must be >= 0, got {demand_w}")
        demand_wh = energy_wh(demand_w, duration_s)
        solar_wh = energy_wh(self._current_solar_w, duration_s)

        # 1. Solar first.
        solar_used_wh = min(demand_wh, solar_wh)
        deficit_wh = demand_wh - solar_used_wh
        excess_solar_wh = solar_wh - solar_used_wh

        # 2. Battery discharge up to the application's cap.
        battery_wh = 0.0
        if self._battery is not None and deficit_wh > 0:
            requested_w = power_w(deficit_wh, duration_s)
            delivered_w = self._battery.discharge_for_tick(requested_w, duration_s)
            battery_wh = energy_wh(delivered_w, duration_s)
            deficit_wh -= battery_wh
        elif self._battery is not None:
            self._battery.discharge_for_tick(0.0, duration_s)

        # 3. Grid covers the residual, up to the application's grid share.
        grid_capacity_wh = energy_wh(self._share.grid_power_w, duration_s)
        grid_load_wh = min(max(0.0, deficit_wh), grid_capacity_wh)
        unmet_wh = max(0.0, deficit_wh - grid_load_wh)

        # 4. Excess solar charges the battery automatically; the app's
        #    charge-rate knob tops up from the grid.
        solar_to_battery_wh = 0.0
        grid_to_battery_wh = 0.0
        if self._battery is not None:
            if excess_solar_wh > 0:
                offered_w = power_w(excess_solar_wh, duration_s)
                accepted_w = self._battery.charge_for_tick(offered_w, duration_s)
                solar_to_battery_wh = energy_wh(accepted_w, duration_s)
            target_rate_w = self._battery.charge_rate_w
            solar_charge_w = power_w(solar_to_battery_wh, duration_s)
            if target_rate_w > solar_charge_w:
                grid_headroom_wh = max(0.0, grid_capacity_wh - grid_load_wh)
                top_up_w = min(
                    target_rate_w - solar_charge_w,
                    power_w(grid_headroom_wh, duration_s),
                )
                if top_up_w > 0:
                    accepted_w = self._battery.charge_for_tick(top_up_w, duration_s)
                    grid_to_battery_wh = energy_wh(accepted_w, duration_s)
            self._battery.note_tick_charge(
                power_w(solar_to_battery_wh + grid_to_battery_wh, duration_s)
            )

        # 5. Whatever solar the battery could not absorb is curtailed.
        curtailed_wh = excess_solar_wh - solar_to_battery_wh

        served_wh = solar_used_wh + battery_wh + grid_load_wh
        grid_total_wh = grid_load_wh + grid_to_battery_wh
        carbon_g = carbon_grams(grid_total_wh, carbon_intensity_g_per_kwh)
        cost_usd = energy_cost_usd(grid_total_wh, price_usd_per_kwh)
        self._last_grid_power_w = power_w(grid_total_wh, duration_s)

        settlement = TickSettlement(
            app_name=self._app_name,
            time_s=time_s,
            duration_s=duration_s,
            carbon_intensity_g_per_kwh=carbon_intensity_g_per_kwh,
            demand_wh=demand_wh,
            served_wh=served_wh,
            unmet_wh=unmet_wh,
            solar_available_wh=solar_wh,
            solar_used_wh=solar_used_wh,
            solar_to_battery_wh=solar_to_battery_wh,
            curtailed_wh=curtailed_wh,
            battery_discharge_wh=battery_wh,
            grid_load_wh=grid_load_wh,
            grid_to_battery_wh=grid_to_battery_wh,
            carbon_g=carbon_g,
            price_usd_per_kwh=price_usd_per_kwh,
            cost_usd=cost_usd,
        )
        settlement.validate()
        return settlement

    def __repr__(self) -> str:
        battery = "battery" if self._battery is not None else "no-battery"
        return (
            f"VirtualEnergySystem({self._app_name!r}, "
            f"solar_share={self._share.solar_fraction:.0%}, {battery})"
        )
