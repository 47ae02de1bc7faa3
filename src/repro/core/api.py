"""The ecovisor's application API (paper Table 1, snapshot-first v1).

Each application receives an :class:`EcovisorAPI` bound to its name; every
call is authorization-checked so an application can only observe and
control its *own* virtual energy system and containers.

The v1 surface is snapshot-first:

- :meth:`EcovisorAPI.state` returns the application's immutable per-tick
  :class:`~repro.core.state.EnergyState` — **one** consistent observation
  (solar, grid, carbon, price, battery, per-container power, cumulative
  ledger figures) computed once per tick by the ecovisor and shared by
  reference with every consumer.
- :attr:`EcovisorAPI.signals` is the typed subscription bus
  (``api.signals.on(CarbonChange, cb, threshold=..., debounce_s=...)``).
- The Table 1 *setters* are unchanged.
- The Table 1 *getters* are the snapshot's fields
  (``get_solar_power()`` is ``state().solar_power_w``, and so on; the
  full map is in ``docs/api_tour.md``).  Only the per-container reads
  stay methods, because they take a container id.

Units: the paper's table lists kW because it targets datacenter scale; the
prototype cluster (like ours) operates at watt scale, so this API speaks
watts and watt-hours throughout.  Conversions live in
:mod:`repro.core.units`.

Beyond Table 1, the API exposes the container/resource management calls
the paper says applications may also use ("applications may horizontally
scale their number of containers, or the resources allocated to each
container", Section 3.1): ``launch_container``, ``stop_container``,
``scale_to`` and ``set_container_cores``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.container import Container
from repro.core.ecovisor import Ecovisor, TickCallback
from repro.core.signals import SignalBus
from repro.core.state import EnergyState


class EcovisorAPI:
    """Per-application handle onto the ecovisor (Table 1 / API v1)."""

    def __init__(self, ecovisor: Ecovisor, app_name: str):
        self._ecovisor = ecovisor
        self._app_name = app_name
        self._ves = ecovisor.ves_for(app_name)
        self._platform = ecovisor.platform
        self._signals: Optional[SignalBus] = None

    @property
    def app_name(self) -> str:
        return self._app_name

    @property
    def ecovisor(self) -> Ecovisor:
        """Escape hatch for library layers; applications use the API."""
        return self._ecovisor

    # ------------------------------------------------------------------
    # Snapshot observation (API v1)
    # ------------------------------------------------------------------
    def state(self) -> EnergyState:
        """The application's immutable per-tick energy state snapshot.

        During the tick upcall window the snapshot holds this tick's
        environment signals and the previous settlement's battery/grid/
        ledger figures; after settlement it holds the settled figures
        (``state().settled`` is True).  Repeated calls within a phase
        return the same instance.
        """
        return self._ecovisor.state_for(self._app_name)

    @property
    def signals(self) -> SignalBus:
        """Typed signal subscriptions scoped to this application.

        Obtained through the ecovisor so the subscriptions are
        cancelled if the application is evicted.
        """
        if self._signals is None:
            self._signals = self._ecovisor.signal_bus_for(self._app_name)
        return self._signals

    # ------------------------------------------------------------------
    # Setters (Table 1)
    # ------------------------------------------------------------------
    def set_container_powercap(
        self, container_id: str, watts: Optional[float]
    ) -> None:
        """Set a container's power cap (None removes the cap)."""
        self._ecovisor.set_container_powercap(self._app_name, container_id, watts)

    def set_battery_charge_rate(self, watts: float) -> None:
        """Set the virtual battery's grid-supplemented charge rate until full."""
        self._require_battery().set_charge_rate(watts)

    def set_battery_max_discharge(self, watts: float) -> None:
        """Set the maximum rate at which the virtual battery may discharge."""
        self._require_battery().set_max_discharge(watts)

    # ------------------------------------------------------------------
    # Per-container reads (Table 1)
    # ------------------------------------------------------------------
    def get_container_powercap(self, container_id: str) -> Optional[float]:
        """A container's current power cap (W); None when uncapped.

        A knob read (not a measurement): always served live so caps set
        moments earlier are immediately visible.
        """
        container = self._owned(container_id)
        return container.power_cap_w

    def get_container_power(self, container_id: str) -> float:
        """A container's most recent measured power draw (W).

        Read from ``state().container_power_w``; containers launched
        after the tick's snapshot was built fall back to a live
        measurement.
        """
        self._owned(container_id)
        power = self.state().container_power_w.get(container_id)
        if power is None:
            return self._platform.container_power_w(container_id)
        return power

    # ------------------------------------------------------------------
    # Asynchronous notification (Table 1)
    # ------------------------------------------------------------------
    def register_tick(self, callback: TickCallback) -> None:
        """Register the application's ``tick()`` upcall.

        The ecovisor invokes the callback once per tick interval, before
        the interval's energy is settled, so adjustments made inside the
        callback govern the upcoming interval.  The callback receives
        ``(tick, state)``, where ``state`` is this tick's snapshot.
        """
        self._ecovisor.register_tick_callback(self._app_name, callback)

    # ------------------------------------------------------------------
    # Container and resource management (Section 3.1)
    # ------------------------------------------------------------------
    def launch_container(
        self, cores: float, gpu: bool = False, role: str = Container.DEFAULT_ROLE
    ) -> Container:
        """Horizontally scale up by one container."""
        return self._ecovisor.launch_container(
            self._app_name, cores, gpu=gpu, role=role
        )

    def stop_container(self, container_id: str) -> None:
        """Horizontally scale down by stopping one owned container."""
        self._ecovisor.stop_container(self._app_name, container_id)

    def scale_to(
        self,
        count: int,
        cores: float,
        gpu: bool = False,
        role: str = Container.DEFAULT_ROLE,
    ) -> List[Container]:
        """Horizontally scale the ``role`` pool to exactly ``count``."""
        return self._ecovisor.scale_app_to(
            self._app_name, count, cores, gpu=gpu, role=role
        )

    def set_container_cores(self, container_id: str, cores: float) -> None:
        """Vertically scale an owned container's core allocation."""
        self._ecovisor.set_container_cores(self._app_name, container_id, cores)

    def list_containers(self, role: Optional[str] = None) -> List[Container]:
        """The application's containers (optionally one role's).

        The role-filtered form returns the platform's own pool list —
        treat it as read-only (every policy and workload consults it
        several times per tick on the fleet hot path).
        """
        if role is not None:
            return self._platform.running_containers_for_role(self._app_name, role)
        return self._platform.running_containers_for(self._app_name)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _owned(self, container_id: str) -> Container:
        return self._ecovisor.owned_container(self._app_name, container_id)

    def _require_battery(self):
        battery = self._ves.battery
        if battery is None:
            from repro.core.errors import ConfigurationError

            raise ConfigurationError(
                f"application {self._app_name!r} has no virtual battery share"
            )
        return battery

    def __repr__(self) -> str:
        return f"EcovisorAPI(app={self._app_name!r})"


def connect(ecovisor: Ecovisor, app_name: str) -> EcovisorAPI:
    """Obtain the API handle for a registered application."""
    return EcovisorAPI(ecovisor, app_name)
