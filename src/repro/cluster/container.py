"""Container abstraction.

Containers are the unit of resource allocation and energy management
(paper Section 3).  Our containers mirror the LXD surface the prototype
uses: a core allocation that can be vertically scaled with cgroups, a
power cap enforced as a utilization clamp, and per-container power
accounting via the software-defined power meter.
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional

from repro.core.units import clamp

_container_counter = itertools.count()


def _next_container_id(app_name: str) -> str:
    return f"{app_name}-c{next(_container_counter)}"


def reset_container_id_counter() -> None:
    """Restart the process-global container-id sequence.

    Container ids embed a process-wide counter, so two otherwise
    identical environments built back-to-back in one process get
    different ids (and therefore different ``container.<id>.*``
    telemetry series names).  Byte-identical parity tests reset the
    counter between runs; production code should never call this, since
    it can reintroduce id collisions between coexisting environments
    that share an application name.
    """
    global _container_counter
    _container_counter = itertools.count()


class ContainerState(enum.Enum):
    """Lifecycle states; RUNNING containers draw power, STOPPED draw none."""

    RUNNING = "running"
    STOPPED = "stopped"


class Container:
    """One container instance placed on a server.

    The workload drives ``demand_utilization`` each tick (how busy the
    application would like to be); the effective utilization — what
    actually runs and draws power — is the demand clamped by the power
    cap's utilization limit.
    """

    DEFAULT_ROLE = "worker"

    #: Bumped whenever a container's attributed power can change without
    #: a placement change: a demand utilization that moved, a power cap.
    #: The columnar settle kernel keeps every container's power from one
    #: settle to the next until this (or the platform's version, which a
    #: launch, stop or resize moves) moves.
    _utilization_epoch = 0

    def __init__(
        self,
        app_name: str,
        cores: float,
        gpu: bool = False,
        container_id: Optional[str] = None,
        role: str = DEFAULT_ROLE,
    ):
        if not cores > 0:
            raise ValueError(f"cores must be positive, got {cores}")
        self._id = container_id or _next_container_id(app_name)
        self._app_name = app_name
        self._cores = float(cores)
        self._gpu = gpu
        self._role = role
        self._state = ContainerState.RUNNING
        self._power_cap_w: Optional[float] = None
        self._demand_utilization = 0.0
        self._cap_utilization = 1.0
        self._last_power_w = 0.0
        self._energy_wh = 0.0
        self._carbon_g = 0.0
        self.server_name: Optional[str] = None

    # ------------------------------------------------------------------
    # Identity and allocation
    # ------------------------------------------------------------------
    @property
    def id(self) -> str:
        return self._id

    @property
    def app_name(self) -> str:
        return self._app_name

    @property
    def role(self) -> str:
        """Deployment role, e.g. ``worker`` or ``coordinator``.

        Roles let policies horizontally scale an application's worker
        pool without touching long-lived auxiliary containers such as
        BLAST's central queue server.
        """
        return self._role

    @property
    def cores(self) -> float:
        return self._cores

    @property
    def has_gpu(self) -> bool:
        return self._gpu

    def set_cores(self, cores: float) -> None:
        """Vertically scale the container's core allocation (cgroups).

        For a placed container this is a step of
        :meth:`~repro.cluster.cop.ContainerOrchestrationPlatform.set_container_cores`,
        which moves the platform's topology version; called directly it
        leaves the platform's derived views stale.
        """
        if not cores > 0:
            raise ValueError(f"cores must be positive, got {cores}")
        self._cores = float(cores)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def state(self) -> ContainerState:
        return self._state

    @property
    def is_running(self) -> bool:
        return self._state is ContainerState.RUNNING

    def _stop(self) -> None:
        # Called only by ContainerOrchestrationPlatform.stop_container,
        # which evicts and deregisters the container in the same call:
        # every container the platform lists is running and placed.
        self._state = ContainerState.STOPPED
        self._demand_utilization = 0.0
        self._last_power_w = 0.0

    # ------------------------------------------------------------------
    # Power capping and utilization
    # ------------------------------------------------------------------
    @property
    def power_cap_w(self) -> Optional[float]:
        """The cap set via ``set_container_powercap``; None means uncapped."""
        return self._power_cap_w

    def set_power_cap(self, cap_w: Optional[float], cap_utilization: float) -> None:
        """Install a power cap together with its utilization translation.

        The orchestration platform computes ``cap_utilization`` from the
        server's power model (cgroups enforcement); the container just
        stores and applies it.
        """
        if cap_w is not None and not cap_w >= 0:
            raise ValueError(f"power cap must be >= 0, got {cap_w}")
        self._power_cap_w = cap_w
        self._cap_utilization = clamp(cap_utilization, 0.0, 1.0)
        Container._utilization_epoch += 1

    @property
    def demand_utilization(self) -> float:
        return self._demand_utilization

    def set_demand_utilization(self, utilization: float) -> None:
        """Workload-requested utilization of the container's cores."""
        if utilization != self._demand_utilization:
            self._demand_utilization = clamp(utilization, 0.0, 1.0)
            Container._utilization_epoch += 1

    @property
    def effective_utilization(self) -> float:
        """Utilization that actually runs: demand clamped by the cap."""
        if not self.is_running:
            return 0.0
        return min(self._demand_utilization, self._cap_utilization)

    @property
    def cap_utilization(self) -> float:
        return self._cap_utilization

    # ------------------------------------------------------------------
    # Accounting (written by the power monitor each tick)
    # ------------------------------------------------------------------
    @property
    def last_power_w(self) -> float:
        """Most recent measured power draw."""
        return self._last_power_w

    @property
    def energy_wh(self) -> float:
        """Cumulative energy attributed to this container."""
        return self._energy_wh

    @property
    def carbon_g(self) -> float:
        """Cumulative carbon attributed to this container."""
        return self._carbon_g

    def record_tick(self, power_w: float, energy_wh: float, carbon_g: float) -> None:
        """Record one settled tick of power, energy, and carbon."""
        self._last_power_w = power_w
        self._energy_wh += energy_wh
        self._carbon_g += carbon_g

    def __repr__(self) -> str:
        cap = f", cap={self._power_cap_w:.2f}W" if self._power_cap_w is not None else ""
        return (
            f"Container({self._id!r}, app={self._app_name!r}, "
            f"cores={self._cores:g}, {self._state.value}{cap})"
        )
