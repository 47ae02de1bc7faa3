"""Server model.

A server hosts containers up to its core capacity and exposes the
measured-power surface the prototype gets from IPMI/internal meters
(paper Section 2, 'Monitoring Power').
"""

from __future__ import annotations

from typing import Dict, List

from repro.cluster.container import Container
from repro.cluster.power_model import ServerPowerModel
from repro.core.config import ServerConfig
from repro.core.errors import InsufficientResourcesError


class Server:
    """One microserver hosting containers."""

    def __init__(self, name: str, config: ServerConfig | None = None):
        self._name = name
        self._config = config or ServerConfig()
        self._config.validate()
        self._power_model = ServerPowerModel(self._config)
        self._containers: Dict[str, Container] = {}
        # Occupancy memo, cleared by this server's own place, evict and
        # resize: the only changes to what it hosts.  The scheduler's
        # commit copies it, and the platform baseline re-reads it, so
        # neither re-walks every server's containers after one launch
        # or stop.
        self._occ_cache: tuple | None = None

    @property
    def name(self) -> str:
        return self._name

    @property
    def config(self) -> ServerConfig:
        return self._config

    @property
    def power_model(self) -> ServerPowerModel:
        return self._power_model

    @property
    def total_cores(self) -> int:
        return self._config.cores

    @property
    def allocated_cores(self) -> float:
        return self.occupancy()[0]

    @property
    def free_cores(self) -> float:
        return self.total_cores - self.occupancy()[0]

    @property
    def containers(self) -> List[Container]:
        return list(self._containers.values())

    @property
    def instance_count(self) -> int:
        """Running containers hosted here (the LXD scheduler's sort key)."""
        return self.occupancy()[1]

    def can_host(self, cores: float) -> bool:
        return self.free_cores + 1e-9 >= cores

    def occupancy(self) -> tuple:
        """(allocated cores, running instances), memoized between changes.

        The scheduler copies both after every change to this server;
        deriving them together halves the scan the separate
        ``allocated_cores``/``instance_count`` computations would do,
        and the memo turns every later read into two attribute reads.
        The allocated cores re-sum in insertion order, so a memo equals
        a fresh read.
        """
        cache = self._occ_cache
        if cache is not None:
            return cache
        # Every hosted container is running: the platform evicts a
        # container in the same call that stops it.
        allocated = 0.0
        for container in self._containers.values():
            allocated += container.cores
        cache = (allocated, len(self._containers))
        self._occ_cache = cache
        return cache

    def place(self, container: Container) -> None:
        """Host ``container``; raises if the server lacks free cores."""
        if not self.can_host(container.cores):
            raise InsufficientResourcesError(
                f"server {self._name!r} has {self.free_cores:g} free cores, "
                f"container {container.id!r} needs {container.cores:g}"
            )
        self._containers[container.id] = container
        container.server_name = self._name
        self._occ_cache = None

    def evict(self, container_id: str) -> Container:
        """Remove a container from this server and return it."""
        container = self._containers.pop(container_id)
        container.server_name = None
        self._occ_cache = None
        return container

    def resize(self, container: Container, cores: float) -> None:
        """Vertically scale a hosted container in place (cgroups).

        The one way a hosted container's core allocation changes: the
        platform migrates a container that does not fit by evicting it
        first.
        """
        container.set_cores(cores)
        self._occ_cache = None

    def hosts(self, container_id: str) -> bool:
        return container_id in self._containers

    def can_grow(self, container: Container, new_cores: float) -> bool:
        """Whether vertically scaling ``container`` to ``new_cores`` fits."""
        others = self.allocated_cores - container.cores
        return others + new_cores <= self.total_cores + 1e-9


    def baseline_idle_power_w(self) -> float:
        """Idle power of cores not allocated to any container.

        Read from the occupancy memo: the platform refreshes its idle
        baseline with this after every change to the server.
        """
        config = self._config
        cores = config.cores
        return ((cores - self.occupancy()[0]) / cores) * config.idle_power_w

    def __repr__(self) -> str:
        return (
            f"Server({self._name!r}, containers={self.instance_count}, "
            f"free_cores={self.free_cores:g}/{self.total_cores})"
        )
