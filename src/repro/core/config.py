"""Configuration dataclasses for every subsystem.

Defaults reproduce the paper's hardware prototype (Section 4):

- ARM microservers: 1.35 W idle, 5 W at 100% CPU, 10 W at 100% CPU+GPU,
  quad-core.
- Battery bank: 1440 Wh, "empty" at 30% state-of-charge, maximum charge
  rate 0.25C (full in 4 h), maximum discharge rate 1C (empty in 1 h).
- Tick interval: one minute; carbon intensity sampled every 5 minutes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import ConfigurationError
from repro.core.units import SECONDS_PER_MINUTE


def canonical_json(value: Any) -> str:
    """Serialize a configuration-like value to canonical JSON.

    Dataclasses are expanded to dicts, dict keys are sorted, and floats use
    ``repr`` round-tripping (via the JSON encoder), so equal configurations
    always serialize to identical bytes.  Non-finite floats are permitted
    (``Infinity`` is a legitimate grid-power share).  Raises ``TypeError``
    for values that have no stable representation (arbitrary objects).
    """
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), default=_jsonify
    )


def _jsonify(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    raise TypeError(f"not canonically serializable: {type(value).__name__}")


def config_digest(value: Any, length: int = 12) -> str:
    """Stable hex digest of a configuration-like value.

    Used for run provenance: two runs with identical scenario parameters
    produce identical digests across processes and Python versions (no
    reliance on ``hash()``, which is salted per process).
    """
    digest = hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()
    return digest[:length]


@dataclass(frozen=True)
class ServerConfig:
    """Power and capacity model of one microserver (paper Section 4)."""

    cores: int = 4
    idle_power_w: float = 1.35
    max_cpu_power_w: float = 5.0
    max_gpu_power_w: float = 10.0
    has_gpu: bool = False

    def validate(self) -> None:
        if not self.cores > 0:
            raise ConfigurationError(f"cores must be positive, got {self.cores}")
        if not self.idle_power_w >= 0:
            raise ConfigurationError("idle power must be >= 0")
        if not self.max_cpu_power_w > self.idle_power_w:
            raise ConfigurationError(
                "max CPU power must exceed idle power "
                f"({self.max_cpu_power_w} <= {self.idle_power_w})"
            )
        if self.has_gpu and not self.max_gpu_power_w > self.max_cpu_power_w:
            raise ConfigurationError("max GPU power must exceed max CPU power")


@dataclass(frozen=True)
class ClusterConfig:
    """A homogeneous cluster of microservers."""

    num_servers: int = 12
    server: ServerConfig = field(default_factory=ServerConfig)

    def validate(self) -> None:
        if self.num_servers <= 0:
            raise ConfigurationError("cluster needs at least one server")
        self.server.validate()

    @property
    def total_cores(self) -> int:
        return self.num_servers * self.server.cores

    @property
    def max_power_w(self) -> float:
        per_server = (
            self.server.max_gpu_power_w
            if self.server.has_gpu
            else self.server.max_cpu_power_w
        )
        return self.num_servers * per_server


@dataclass(frozen=True)
class BatteryConfig:
    """Physical battery bank (paper Section 4, 'Battery Power').

    ``capacity_wh`` is the nameplate capacity.  The charge controller
    treats ``empty_soc_fraction`` (default 30%) as empty to protect cycle
    life, so usable capacity is ``capacity_wh * (1 - empty_soc_fraction)``.
    Charge/discharge limits are expressed as C-rates: 0.25C charges in 4
    hours, 1C discharges in 1 hour.
    """

    capacity_wh: float = 1440.0
    empty_soc_fraction: float = 0.30
    max_charge_c_rate: float = 0.25
    max_discharge_c_rate: float = 1.0
    charge_efficiency: float = 0.95
    discharge_efficiency: float = 0.95
    initial_soc_fraction: float = 0.50

    def validate(self) -> None:
        if not self.capacity_wh > 0:
            raise ConfigurationError("battery capacity must be positive")
        if not 0.0 <= self.empty_soc_fraction < 1.0:
            raise ConfigurationError("empty SoC fraction must be in [0, 1)")
        if not (self.max_charge_c_rate > 0 and self.max_discharge_c_rate > 0):
            raise ConfigurationError("C-rates must be positive")
        if not 0.0 < self.charge_efficiency <= 1.0:
            raise ConfigurationError("charge efficiency must be in (0, 1]")
        if not 0.0 < self.discharge_efficiency <= 1.0:
            raise ConfigurationError("discharge efficiency must be in (0, 1]")
        if not self.empty_soc_fraction <= self.initial_soc_fraction <= 1.0:
            raise ConfigurationError(
                "initial SoC must lie between the empty floor and full"
            )

    @property
    def usable_capacity_wh(self) -> float:
        """Energy between the empty floor and full charge."""
        return self.capacity_wh * (1.0 - self.empty_soc_fraction)

    @property
    def max_charge_power_w(self) -> float:
        return self.capacity_wh * self.max_charge_c_rate

    @property
    def max_discharge_power_w(self) -> float:
        return self.capacity_wh * self.max_discharge_c_rate


@dataclass(frozen=True)
class SolarConfig:
    """Solar array emulator (paper Section 4, 'Solar Power').

    The emulator replays an irradiance trace through a PV conversion model
    sized by ``peak_power_w``.  ``scale`` uniformly scales the output,
    which is how Figures 10(c) and 11 sweep 'available renewable power'.
    """

    peak_power_w: float = 500.0
    scale: float = 1.0
    panel_efficiency_derating: float = 0.90

    def validate(self) -> None:
        if not self.peak_power_w > 0:
            raise ConfigurationError("peak power must be positive")
        if not self.scale >= 0:
            raise ConfigurationError("scale must be >= 0")
        if not 0.0 < self.panel_efficiency_derating <= 1.0:
            raise ConfigurationError("derating must be in (0, 1]")


@dataclass(frozen=True)
class WindConfig:
    """Wind plant sized by rated (nameplate) power.

    The plant replays a capacity-factor trace through the rated power,
    the wind analogue of :class:`SolarConfig`'s irradiance conversion.
    ``scale`` uniformly scales output so hybrid-generation sweeps can
    vary 'available renewable power' without touching the trace.
    """

    rated_power_w: float = 500.0
    scale: float = 1.0

    def validate(self) -> None:
        if not self.rated_power_w > 0:
            raise ConfigurationError("rated power must be positive")
        if not self.scale >= 0:
            raise ConfigurationError("scale must be >= 0")


@dataclass(frozen=True)
class GridConfig:
    """Grid connection. ``max_power_w`` of ``inf`` means unconstrained."""

    max_power_w: float = float("inf")
    net_metering: bool = False

    def validate(self) -> None:
        if not self.max_power_w > 0:
            raise ConfigurationError("grid max power must be positive")


@dataclass(frozen=True)
class CarbonServiceConfig:
    """Carbon information service (electricityMap-like, paper Section 2)."""

    region: str = "caiso"
    update_interval_s: float = 5 * SECONDS_PER_MINUTE
    seed: int = 2023

    def validate(self) -> None:
        if not self.update_interval_s > 0:
            raise ConfigurationError("update interval must be positive")


@dataclass(frozen=True)
class PriceServiceConfig:
    """Electricity-price signal service (utility/ISO price feed).

    Mirrors :class:`CarbonServiceConfig`: the ecovisor polls a price feed
    the same way it polls a carbon information service.  ``regime`` names
    a registered price regime in :mod:`repro.market.prices` (``flat``,
    ``tou``, ``realtime``).
    """

    regime: str = "tou"
    update_interval_s: float = 5 * SECONDS_PER_MINUTE
    seed: int = 2023

    def validate(self) -> None:
        if not self.update_interval_s > 0:
            raise ConfigurationError("update interval must be positive")


@dataclass(frozen=True)
class EcovisorConfig:
    """Top-level ecovisor knobs (paper Section 3).

    ``solar_buffer_fraction`` is the sliver of battery capacity the
    ecovisor always retains to buffer one tick of solar output, so that
    applications always know the solar power available to them in the next
    tick interval.
    """

    tick_interval_s: float = SECONDS_PER_MINUTE
    solar_buffer_enabled: bool = True
    solar_buffer_fraction: float = 0.01
    carbon_change_threshold_g_per_kwh: float = 10.0
    solar_change_threshold_w: float = 5.0
    price_change_threshold_usd_per_kwh: float = 0.05

    def validate(self) -> None:
        if not self.tick_interval_s > 0:
            raise ConfigurationError("tick interval must be positive")
        if not 0.0 <= self.solar_buffer_fraction < 0.5:
            raise ConfigurationError("solar buffer fraction must be in [0, 0.5)")
        if not self.carbon_change_threshold_g_per_kwh >= 0:
            raise ConfigurationError("carbon change threshold must be >= 0")
        if not self.solar_change_threshold_w >= 0:
            raise ConfigurationError("solar change threshold must be >= 0")
        if not self.price_change_threshold_usd_per_kwh >= 0:
            raise ConfigurationError("price change threshold must be >= 0")


@dataclass(frozen=True)
class ShareConfig:
    """An application's share of the physical energy system.

    The paper assumes an exogenous policy fixes each application's share of
    grid power, solar output, and battery energy/power capacity (Section
    3.3).  Fractions are of the respective physical resource.
    """

    solar_fraction: float = 0.0
    battery_fraction: float = 0.0
    grid_power_w: float = float("inf")

    def validate(self) -> None:
        if not 0.0 <= self.solar_fraction <= 1.0:
            raise ConfigurationError("solar fraction must be in [0, 1]")
        if not 0.0 <= self.battery_fraction <= 1.0:
            raise ConfigurationError("battery fraction must be in [0, 1]")
        if not self.grid_power_w >= 0:
            raise ConfigurationError("grid power share must be >= 0")
