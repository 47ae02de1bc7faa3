"""Physical battery model.

Models the paper's battery bank (Section 4): lithium-ion cells behind a
smart charge controller that (i) treats a 30% state-of-charge as "empty"
to protect cycle life, (ii) limits charging to 0.25C, and (iii) limits
discharge to 1C.  Charging and discharging each incur an efficiency loss,
so round-trip efficiency is their product.

The model is energy-based (no voltage/current electrochemistry): the
ecovisor's control surface is the charge controller's software API, which
deals in power setpoints and state-of-charge queries, exactly what this
class exposes.
"""

from __future__ import annotations

from repro.core.config import BatteryConfig
from repro.core.units import clamp, energy_wh, power_w


class Battery:
    """A battery bank with SoC tracking, rate limits, and a DoD floor.

    Internally the state of charge is an absolute energy level in Wh
    between 0 and ``capacity_wh``.  The *usable* level is measured from the
    empty floor: ``usable_wh == 0`` means the controller reports empty even
    though 30% of nameplate charge remains.
    """

    #: Process-wide generation counter, bumped by every write to a
    #: battery's stored energy (:meth:`charge`, :meth:`discharge`,
    #: :meth:`set_level_wh`) and to a virtual battery's last charge and
    #: discharge power.  The columnar settle kernel mirrors that state
    #: in arrays between ticks and re-reads the objects only when this
    #: moved; its own write-back skips the bump.  Class-level, so a
    #: write by another ecovisor in the process forces a re-read.
    _write_epoch = 0

    def __init__(self, config: BatteryConfig | None = None):
        self._config = config or BatteryConfig()
        self._config.validate()
        self._level_wh = self._config.initial_soc_fraction * self._config.capacity_wh
        self._total_charged_wh = 0.0
        self._total_discharged_wh = 0.0

    @property
    def config(self) -> BatteryConfig:
        return self._config

    @property
    def capacity_wh(self) -> float:
        """Nameplate capacity."""
        return self._config.capacity_wh

    @property
    def floor_wh(self) -> float:
        """Absolute level at which the controller reports empty."""
        return self._config.empty_soc_fraction * self._config.capacity_wh

    @property
    def level_wh(self) -> float:
        """Absolute stored energy (includes the protected floor)."""
        return self._level_wh

    @property
    def usable_wh(self) -> float:
        """Energy available above the empty floor."""
        return max(0.0, self._level_wh - self.floor_wh)

    @property
    def usable_capacity_wh(self) -> float:
        """Maximum usable energy (capacity above the floor)."""
        return self._config.usable_capacity_wh

    @property
    def headroom_wh(self) -> float:
        """Energy that can still be stored before the battery is full."""
        return max(0.0, self._config.capacity_wh - self._level_wh)

    @property
    def soc_fraction(self) -> float:
        """State of charge as a fraction of nameplate capacity."""
        return self._level_wh / self._config.capacity_wh

    @property
    def is_full(self) -> bool:
        return self.headroom_wh <= 1e-9

    @property
    def is_empty(self) -> bool:
        """True when the controller would report empty (30% SoC floor)."""
        return self.usable_wh <= 1e-9

    @property
    def max_charge_power_w(self) -> float:
        """Controller-enforced charging limit (0.25C by default)."""
        return self._config.max_charge_power_w

    @property
    def max_discharge_power_w(self) -> float:
        """Controller-enforced discharge limit (1C by default)."""
        return self._config.max_discharge_power_w

    @property
    def total_charged_wh(self) -> float:
        """Cumulative input energy accepted at the terminals."""
        return self._total_charged_wh

    @property
    def total_discharged_wh(self) -> float:
        """Cumulative output energy delivered at the terminals."""
        return self._total_discharged_wh

    def charge(self, requested_power_w: float, duration_s: float) -> float:
        """Charge at up to ``requested_power_w`` for ``duration_s`` seconds.

        Returns the power actually accepted at the terminals, which may be
        lower due to the C-rate limit or limited headroom.  Stored energy
        is the accepted energy times the charge efficiency.
        """
        if requested_power_w < 0:
            raise ValueError(f"charge power must be >= 0, got {requested_power_w}")
        if not duration_s > 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        accepted_w = min(requested_power_w, self.max_charge_power_w)
        input_wh = energy_wh(accepted_w, duration_s)
        storable_wh = self.headroom_wh / self._config.charge_efficiency
        input_wh = min(input_wh, storable_wh)
        self._level_wh = clamp(
            self._level_wh + input_wh * self._config.charge_efficiency,
            0.0,
            self._config.capacity_wh,
        )
        self._total_charged_wh += input_wh
        Battery._write_epoch += 1
        return power_w(input_wh, duration_s)

    def discharge(self, requested_power_w: float, duration_s: float) -> float:
        """Discharge at up to ``requested_power_w`` for ``duration_s`` seconds.

        Returns the power actually delivered at the terminals, limited by
        the C-rate cap and the usable energy above the empty floor.
        Delivering E at the terminals drains E / discharge_efficiency from
        the store.
        """
        if requested_power_w < 0:
            raise ValueError(f"discharge power must be >= 0, got {requested_power_w}")
        if not duration_s > 0:
            raise ValueError(f"duration must be positive, got {duration_s}")
        deliverable_w = min(requested_power_w, self.max_discharge_power_w)
        output_wh = energy_wh(deliverable_w, duration_s)
        max_output_wh = self.usable_wh * self._config.discharge_efficiency
        output_wh = min(output_wh, max_output_wh)
        drained_wh = output_wh / self._config.discharge_efficiency
        self._level_wh = clamp(
            self._level_wh - drained_wh, 0.0, self._config.capacity_wh
        )
        self._total_discharged_wh += output_wh
        Battery._write_epoch += 1
        return power_w(output_wh, duration_s)

    def set_level_wh(self, level_wh: float) -> None:
        """Set the absolute stored energy, clamped to [0, capacity].

        A controller operation, not an energy flow: the throughput
        meters are untouched.  Used when a virtual battery is
        rescaled to a new share of the physical bank — the rescaled
        model inherits the stored energy the share can hold.
        """
        if level_wh < 0:
            raise ValueError(f"level must be >= 0, got {level_wh}")
        self._level_wh = clamp(level_wh, 0.0, self._config.capacity_wh)
        Battery._write_epoch += 1

    def max_discharge_energy_wh(self, duration_s: float) -> float:
        """Most terminal energy deliverable over a window of ``duration_s``."""
        rate_limited = energy_wh(self.max_discharge_power_w, duration_s)
        stock_limited = self.usable_wh * self._config.discharge_efficiency
        return min(rate_limited, stock_limited)

    def max_charge_energy_wh(self, duration_s: float) -> float:
        """Most terminal energy acceptable over a window of ``duration_s``."""
        rate_limited = energy_wh(self.max_charge_power_w, duration_s)
        headroom_limited = self.headroom_wh / self._config.charge_efficiency
        return min(rate_limited, headroom_limited)

    def __repr__(self) -> str:
        return (
            f"Battery(soc={self.soc_fraction:.1%}, "
            f"usable={self.usable_wh:.1f}Wh/{self.usable_capacity_wh:.1f}Wh)"
        )
