"""Library interfaces layered on the narrow API (paper Table 2).

The ecovisor API is deliberately minimal; richer abstractions live in
library code so "the additional complexity of using a virtual energy
system need not be borne by most applications" (Section 3.2) — the same
argument as exokernel library operating systems.  This module implements
the example library of Table 2:

- interval energy/carbon queries per container and per application,
- carbon *rate* limits (a threshold rate of emissions per unit time) and
  carbon *budgets* (a total limit).

Rate limits are enforced cooperatively each tick: the library translates
the configured mg/s rate into per-container power caps at the tick
snapshot's carbon-intensity, using the Table 1 setters only —
demonstrating that the narrow API suffices to build these abstractions.

Table 2's change notifications (``notify_solar_change`` and friends)
are subscriptions on the typed :class:`~repro.core.signals.SignalBus`:
``api.signals.on(SolarChange, callback)`` and so on.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.api import EcovisorAPI
from repro.core.clock import TickInfo
from repro.core.state import EnergyState
from repro.core.units import power_for_carbon_rate


class AppEnergyLibrary:
    """Table 2 convenience layer for one application."""

    def __init__(self, api: EcovisorAPI):
        self._api = api
        self._app_name = api.app_name
        self._ecovisor = api.ecovisor
        self._db = self._ecovisor.database
        self._ledger = self._ecovisor.ledger
        self._container_rates_mg_s: Dict[str, float] = {}
        self._app_rate_mg_s: Optional[float] = None
        self._carbon_budget_g: Optional[float] = None
        self._api.register_tick(self._enforce_rates)

    @property
    def api(self) -> EcovisorAPI:
        return self._api

    # ------------------------------------------------------------------
    # Monitoring queries (Table 2)
    # ------------------------------------------------------------------
    def get_container_energy(self, container_id: str, t1: float, t2: float) -> float:
        """Energy (Wh) a container used over [t1, t2)."""
        return self._db.integrate_power_wh(
            f"container.{container_id}.power_w", t1, t2
        )

    def get_container_carbon(self, container_id: str, t1: float, t2: float) -> float:
        """Carbon (g) attributed to a container over [t1, t2)."""
        return self._db.total(f"container.{container_id}.carbon_g", t1, t2)

    def get_app_power(self) -> float:
        """The application's current power usage (W)."""
        return self._db.latest(f"app.{self._app_name}.power_w", default=0.0)

    def get_app_energy(self, t1: float, t2: float) -> float:
        """Energy (Wh) the application used over [t1, t2)."""
        return self._ledger.energy_between(self._app_name, t1, t2)

    def get_app_carbon(
        self, t1: float = 0.0, t2: Optional[float] = None
    ) -> float:
        """Carbon (g) attributed to the application; cumulative by default.

        The cumulative figure is read from the per-tick snapshot
        (``state().total_carbon_g``); interval queries still consult the
        ledger's settlements.
        """
        if t2 is None:
            return self._api.state().total_carbon_g
        return self._ledger.carbon_between(self._app_name, t1, t2)

    def get_app_cost(
        self, t1: float = 0.0, t2: Optional[float] = None
    ) -> float:
        """Grid cost ($) billed to the application; cumulative by default.

        The billing mirror of :meth:`get_app_carbon`: both are sums over
        the same per-tick settlements (market layer).
        """
        if t2 is None:
            return self._api.state().total_cost_usd
        return self._ledger.cost_between(self._app_name, t1, t2)

    # ------------------------------------------------------------------
    # Carbon rate and budget (Table 2)
    # ------------------------------------------------------------------
    def set_carbon_rate(
        self, container_id: str, rate_mg_per_s: Optional[float]
    ) -> None:
        """Cap a container's carbon emission rate (None removes the cap).

        Enforced each tick by converting the rate into a power cap at the
        current grid carbon-intensity.
        """
        if rate_mg_per_s is None:
            self._container_rates_mg_s.pop(container_id, None)
            self._api.set_container_powercap(container_id, None)
            return
        if rate_mg_per_s < 0:
            raise ValueError(f"carbon rate must be >= 0, got {rate_mg_per_s}")
        self._container_rates_mg_s[container_id] = rate_mg_per_s

    def set_app_carbon_rate(self, rate_mg_per_s: Optional[float]) -> None:
        """Cap the application's total carbon rate across its containers."""
        if rate_mg_per_s is not None and rate_mg_per_s < 0:
            raise ValueError(f"carbon rate must be >= 0, got {rate_mg_per_s}")
        self._app_rate_mg_s = rate_mg_per_s

    def set_carbon_budget(self, total_g: Optional[float]) -> None:
        """Set a total carbon budget for the application (None clears it)."""
        if total_g is not None and total_g < 0:
            raise ValueError(f"carbon budget must be >= 0, got {total_g}")
        self._carbon_budget_g = total_g

    @property
    def carbon_budget_g(self) -> Optional[float]:
        return self._carbon_budget_g

    def remaining_budget_g(self) -> Optional[float]:
        """Budget minus cumulative emissions; None when no budget is set."""
        if self._carbon_budget_g is None:
            return None
        return self._carbon_budget_g - self.get_app_carbon()

    def budget_exceeded(self) -> bool:
        remaining = self.remaining_budget_g()
        return remaining is not None and remaining < 0

    # ------------------------------------------------------------------
    # Per-tick rate enforcement (cooperative, built on Table 1 setters)
    # ------------------------------------------------------------------
    def _enforce_rates(self, tick: TickInfo, state: EnergyState) -> None:
        intensity = state.grid_carbon_g_per_kwh
        for container_id, rate in self._container_rates_mg_s.items():
            if not self._ecovisor.platform.has_container(container_id):
                continue
            cap_w = power_for_carbon_rate(rate, intensity)
            self._api.set_container_powercap(container_id, cap_w)
        if self._app_rate_mg_s is not None:
            containers = self._api.list_containers()
            if containers:
                per_container_rate = self._app_rate_mg_s / len(containers)
                cap_w = power_for_carbon_rate(per_container_rate, intensity)
                for container in containers:
                    self._api.set_container_powercap(container.id, cap_w)
