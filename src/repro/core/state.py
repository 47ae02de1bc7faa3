"""Immutable per-tick energy state snapshots (API v1).

The paper's Table 1 exposes the virtual energy system through a dozen
independent getters.  Re-polling them is redundant work on the hottest
path in every sweep: each tick, every policy, library query, REST
handler, and telemetry sampler traverses the same live ecovisor state.
API v1 instead materializes **one consistent, immutable observation per
application per tick** — the :class:`EnergyState` snapshot — computed
once by the ecovisor and shared by reference with every consumer
(policies, the Table 2 library, the REST surface, telemetry).  Vessim
and the "Enabling Sustainable Clouds" vision paper converge on the same
shape: a single frozen view of the energy system per step, with change
notifications (:mod:`repro.core.signals`) layered on top.

Snapshot lifecycle (one snapshot per app per tick):

1. ``Ecovisor.begin_tick`` *builds* the snapshot right after sampling
   the environment.  At that point it holds what the paper's Table 1
   getters return during the tick upcall window: this tick's
   solar/carbon/price, and battery/grid/ledger figures from the
   previous settlement.
2. ``Ecovisor.settle`` *finalizes* the same snapshot
   (``dataclasses.replace``, not a recompute) with the tick's settled
   battery state, grid power, measured container power, and cumulative
   ledger totals, flipping ``settled`` to True.

Both phases hand out the same logical tick snapshot; the build counter
(`Ecovisor.state_builds`) therefore increments exactly once per app per
tick.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Dict, Mapping, Optional


@dataclass(frozen=True, slots=True)
class BatteryState:
    """Immutable view of one application's virtual battery at a tick.

    ``None`` in :attr:`EnergyState.battery` means the application has no
    virtual battery share — the explicit spelling of what the paper's
    Table 1 battery getters flatten into 0.0 returns (see the
    zero-default properties on :class:`EnergyState` for that access
    style).
    """

    charge_level_wh: float
    capacity_wh: float
    soc_fraction: float
    discharge_rate_w: float
    charge_rate_w: float
    max_discharge_w: float
    charge_target_w: float
    is_full: bool
    is_empty: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "charge_level_wh": self.charge_level_wh,
            "capacity_wh": self.capacity_wh,
            "soc_fraction": self.soc_fraction,
            "discharge_rate_w": self.discharge_rate_w,
            "charge_rate_w": self.charge_rate_w,
            "max_discharge_w": self.max_discharge_w,
            "charge_target_w": self.charge_target_w,
            "is_full": self.is_full,
            "is_empty": self.is_empty,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BatteryState":
        """Inverse of :meth:`to_dict` (client SDK reconstruction)."""
        return cls(**{key: payload[key] for key in cls.__slots__})


def _freeze_mapping(mapping: Mapping[str, float]) -> Mapping[str, float]:
    if isinstance(mapping, MappingProxyType):
        return mapping
    return MappingProxyType(dict(mapping))


@dataclass(frozen=True, slots=True)
class EnergyState:
    """One application's frozen per-tick view of its virtual energy system.

    Obtained via ``api.state()`` (in-process) or ``GET
    /v1/apps/{app}/state`` (REST).  All consumers of a tick share the
    same instance by reference; fields never mutate.

    ``settled`` is False during the tick upcall window (environment
    sampled, previous tick settled) and True once the ecovisor has
    settled this tick's energy flows.
    """

    app_name: str
    tick_index: int
    time_s: float
    duration_s: float
    # Environment signals, sampled once at tick start.
    solar_power_w: float
    grid_carbon_g_per_kwh: float
    grid_price_usd_per_kwh: float
    has_market: bool
    # Virtual energy system readings (last settled values until this
    # tick is itself settled).
    grid_power_w: float
    battery: Optional[BatteryState]
    container_power_w: Mapping[str, float] = field(default_factory=dict)
    # Cumulative ledger figures for this application.
    total_energy_wh: float = 0.0
    total_carbon_g: float = 0.0
    total_cost_usd: float = 0.0
    settled: bool = False

    def __post_init__(self):
        object.__setattr__(
            self, "container_power_w", _freeze_mapping(self.container_power_w)
        )

    # ------------------------------------------------------------------
    # Battery zero-default access style (Table 1 getter semantics)
    # ------------------------------------------------------------------
    @property
    def has_battery(self) -> bool:
        return self.battery is not None

    @property
    def battery_charge_level_wh(self) -> float:
        """Usable stored energy; 0.0 when the app has no battery share."""
        return self.battery.charge_level_wh if self.battery is not None else 0.0

    @property
    def battery_capacity_wh(self) -> float:
        """Usable battery capacity; 0.0 when the app has no battery share."""
        return self.battery.capacity_wh if self.battery is not None else 0.0

    @property
    def battery_discharge_rate_w(self) -> float:
        """Last tick's discharge power; 0.0 when no battery share."""
        return self.battery.discharge_rate_w if self.battery is not None else 0.0

    @property
    def battery_soc_fraction(self) -> float:
        """State of charge in [0, 1]; 0.0 when no battery share."""
        return self.battery.soc_fraction if self.battery is not None else 0.0

    def finalized(
        self,
        *,
        grid_power_w: float,
        battery: Optional[BatteryState],
        container_power_w: Mapping[str, float],
        total_energy_wh: float,
        total_carbon_g: float,
        total_cost_usd: float,
    ) -> "EnergyState":
        """The settled version of this tick's snapshot.

        Semantically ``dataclasses.replace``; spelled as a direct
        construction because it runs once per app per tick and
        ``replace`` pays field introspection every call.
        """
        return EnergyState(
            app_name=self.app_name,
            tick_index=self.tick_index,
            time_s=self.time_s,
            duration_s=self.duration_s,
            solar_power_w=self.solar_power_w,
            grid_carbon_g_per_kwh=self.grid_carbon_g_per_kwh,
            grid_price_usd_per_kwh=self.grid_price_usd_per_kwh,
            has_market=self.has_market,
            grid_power_w=grid_power_w,
            battery=battery,
            container_power_w=_freeze_mapping(container_power_w),
            total_energy_wh=total_energy_wh,
            total_carbon_g=total_carbon_g,
            total_cost_usd=total_cost_usd,
            settled=True,
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EnergyState":
        """Inverse of :meth:`to_dict`.

        The client SDK uses this to hand callers the same frozen
        ``EnergyState`` type an in-process ``api.state()`` returns; the
        round-trip is lossless, which is what the SDK parity test pins.
        """
        battery = payload.get("battery")
        return cls(
            app_name=payload["app_name"],
            tick_index=payload["tick_index"],
            time_s=payload["time_s"],
            duration_s=payload["duration_s"],
            solar_power_w=payload["solar_power_w"],
            grid_carbon_g_per_kwh=payload["grid_carbon_g_per_kwh"],
            grid_price_usd_per_kwh=payload["grid_price_usd_per_kwh"],
            has_market=payload["has_market"],
            grid_power_w=payload["grid_power_w"],
            battery=BatteryState.from_dict(battery) if battery else None,
            container_power_w=dict(payload["container_power_w"]),
            total_energy_wh=payload["total_energy_wh"],
            total_carbon_g=payload["total_carbon_g"],
            total_cost_usd=payload["total_cost_usd"],
            settled=payload["settled"],
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (the ``GET /v1/apps/{app}/state`` body)."""
        return {
            "app_name": self.app_name,
            "tick_index": self.tick_index,
            "time_s": self.time_s,
            "duration_s": self.duration_s,
            "solar_power_w": self.solar_power_w,
            "grid_power_w": self.grid_power_w,
            "grid_carbon_g_per_kwh": self.grid_carbon_g_per_kwh,
            "grid_price_usd_per_kwh": self.grid_price_usd_per_kwh,
            "has_market": self.has_market,
            "battery": self.battery.to_dict() if self.battery else None,
            "container_power_w": dict(self.container_power_w),
            "total_energy_wh": self.total_energy_wh,
            "total_carbon_g": self.total_carbon_g,
            "total_cost_usd": self.total_cost_usd,
            "settled": self.settled,
        }

