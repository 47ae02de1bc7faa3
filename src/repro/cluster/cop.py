"""Container orchestration platform (COP).

An LXD-like platform (paper Section 4): it creates and destroys
containers, places them with the fewest-instances scheduler, vertically
scales core allocations via cgroups, and enforces per-container power caps
by translating a watt cap into a utilization clamp through the server's
power model — the approach of Thunderbolt [48] that the prototype adopts.

Every container the platform lists is running and placed:
:meth:`~ContainerOrchestrationPlatform.launch_container` places a
container before registering it, :meth:`~ContainerOrchestrationPlatform.stop_container`
evicts, stops and deregisters it in one call, and a refused migration
restores the container to its host before raising.  Every derived view
(per-app and role lists, occupancy, power readings, the columnar
container cache) relies on this and filters nothing.

Each platform keeps its own topology generation
(:attr:`~ContainerOrchestrationPlatform.version`), which every launch,
stop and core resize moves and nothing else does; the views derived
from the population key on it alone.  The scheduler and the idle
baseline hear of every place, evict and resize as it happens and
re-read only that server.

The ecovisor wraps this platform (it has privileged access to these
functions); applications reach it only through the ecovisor API.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.cluster.container import Container
from repro.cluster.scheduler import FewestInstancesScheduler
from repro.cluster.server import Server
from repro.core.config import ClusterConfig
from repro.core.errors import (
    InsufficientResourcesError,
    SchedulingError,
    UnknownContainerError,
)
from repro.core.units import sequential_sum


class ContainerOrchestrationPlatform:
    """Cluster-wide container lifecycle, placement, and capping."""

    def __init__(self, config: ClusterConfig | None = None):
        self._config = config or ClusterConfig()
        self._config.validate()
        self._servers = [
            Server(f"server-{i}", self._config.server)
            for i in range(self._config.num_servers)
        ]
        self._servers_by_name: Dict[str, Server] = {
            server.name: server for server in self._servers
        }
        # Told of every place, evict and resize below (_commit), as is
        # each server's idle-baseline term, so neither ever re-reads
        # every server.
        self._scheduler = FewestInstancesScheduler(self._servers)
        self._server_pos = {
            server.name: i for i, server in enumerate(self._servers)
        }
        self._baseline_terms = np.array(
            [server.baseline_idle_power_w() for server in self._servers]
        )
        self._containers: Dict[str, Container] = {}
        # Per-application index of the same containers.  Each inner dict
        # preserves launch order, which equals the global insertion order
        # filtered by app — so `running_containers_for` keeps its
        # historical ordering while dropping from O(all containers) to
        # O(app's).
        self._containers_by_app: Dict[str, Dict[str, Container]] = {}
        # (app, role) -> that pool's containers in launch order.  A
        # launch or stop binds a new list for its own pool and never
        # mutates a published one, so a list handed out keeps what it
        # held and every other pool's list stays the same object: the
        # batched tick path re-derives only the pools whose list changed.
        self._pools: Dict[tuple, List[Container]] = {}
        # Topology generation: bumped on every launch, stop and core
        # resize, and on nothing else, so derived views (the baseline
        # memo, role counts, worker plans, the columnar container cache)
        # key on it alone instead of rescanning the container
        # population every tick.  Per platform: one site's changes
        # leave another site's views in place.
        self._version = 0
        self._baseline_key = -1
        self._baseline_w = 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> ClusterConfig:
        return self._config

    @property
    def version(self) -> int:
        """Topology generation; changes whenever a container comes, goes
        or changes its core allocation."""
        return self._version

    @property
    def servers(self) -> List[Server]:
        return list(self._servers)

    @property
    def total_cores(self) -> int:
        return self._config.total_cores

    @property
    def free_cores(self) -> float:
        return sum(s.free_cores for s in self._servers)

    def get_container(self, container_id: str) -> Container:
        try:
            return self._containers[container_id]
        except KeyError:
            raise UnknownContainerError(container_id) from None

    def has_container(self, container_id: str) -> bool:
        return container_id in self._containers

    def containers(self) -> List[Container]:
        """Every listed (hence running and placed) container, in launch order."""
        return list(self._containers.values())

    def running_containers_for(self, app_name: str) -> List[Container]:
        """One app's containers, in launch order."""
        index = self._containers_by_app.get(app_name)
        return list(index.values()) if index else []

    def running_containers_for_role(
        self, app_name: str, role: str
    ) -> List[Container]:
        """One app's containers of one role, in launch order.

        Returns the pool's list itself to keep the fleet hot path
        allocation-free — callers must treat it as read-only.  The list
        never changes: the next launch or stop in the pool binds a new
        one.
        """
        pool = self._pools.get((app_name, role))
        return pool if pool is not None else []

    def running_role_index(self) -> Dict[tuple, List[Container]]:
        """Every container grouped by ``(app_name, role)``.

        Each entry equals the corresponding
        :meth:`running_containers_for_role` result; apps with no
        containers of a role are simply absent.  Returns the live index
        itself, which launches and stops update one entry at a time;
        callers must treat it (and its lists) as read-only.
        """
        return self._pools

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def launch_container(
        self,
        app_name: str,
        cores: float,
        gpu: bool = False,
        role: str = Container.DEFAULT_ROLE,
    ) -> Container:
        """Create, place, and start a container for ``app_name``."""
        if not cores > 0:
            raise SchedulingError(f"cores must be positive, got {cores}")
        container = Container(app_name, cores, gpu=gpu, role=role)
        server = self._scheduler.select(cores)
        server.place(container)
        self._commit(server)
        self._containers[container.id] = container
        self._containers_by_app.setdefault(app_name, {})[container.id] = container
        key = (app_name, role)
        self._pools[key] = [*self._pools.get(key, ()), container]
        self._version += 1
        return container

    def stop_container(self, container_id: str) -> None:
        """Evict, stop and deregister a container, releasing its resources."""
        container = self.get_container(container_id)
        server = self._servers_by_name[container.server_name]
        server.evict(container_id)
        self._commit(server)
        container._stop()
        del self._containers[container_id]
        del self._containers_by_app[container.app_name][container_id]
        key = (container.app_name, container.role)
        pool = [c for c in self._pools[key] if c is not container]
        if pool:
            self._pools[key] = pool
        else:
            del self._pools[key]
        self._version += 1

    def stop_app(self, app_name: str) -> List[str]:
        """Stop every container of an application; returns their ids."""
        ids = [c.id for c in self.running_containers_for(app_name)]
        for container_id in ids:
            self.stop_container(container_id)
        return ids

    # ------------------------------------------------------------------
    # Scaling
    # ------------------------------------------------------------------
    def set_container_cores(self, container_id: str, cores: float) -> None:
        """Vertically scale a container, migrating if its host is full."""
        if not cores > 0:
            raise SchedulingError(f"cores must be positive, got {cores}")
        container = self.get_container(container_id)
        server = self._servers_by_name[container.server_name]
        # Moved up front, so a refused migration moves it too: the
        # container returns to the end of its host's table, and the
        # host's occupancy re-sums in that order.
        self._version += 1
        if server.can_grow(container, cores):
            server.resize(container, cores)
            self._commit(server)
            self._refresh_power_cap(container)
            return
        # Migrate: evict, resize, re-place (stateful LXD migration).
        server.evict(container_id)
        self._commit(server)
        old_cores = container.cores
        container.set_cores(cores)
        try:
            target = self._scheduler.select(cores)
        except InsufficientResourcesError:
            container.set_cores(old_cores)
            server.place(container)
            self._commit(server)
            raise
        target.place(container)
        self._commit(target)
        self._refresh_power_cap(container)

    def _commit(self, server: Server) -> None:
        """Re-read ``server`` after it placed, evicted or resized a
        container: its scheduler entry and its idle-baseline term."""
        self._scheduler.commit(server)
        self._baseline_terms[self._server_pos[server.name]] = (
            server.baseline_idle_power_w()
        )

    def _refresh_power_cap(self, container: Container) -> None:
        """Re-derive a capped container's utilization clamp after resize.

        The watt cap is enforced as a utilization clamp computed from
        the container's core count; resizing with a stale clamp would
        let measured power exceed the configured cap.
        """
        if container.power_cap_w is not None:
            self.set_power_cap(container.id, container.power_cap_w)

    def scale_app_to(
        self,
        app_name: str,
        count: int,
        cores: float,
        gpu: bool = False,
        role: str = Container.DEFAULT_ROLE,
    ) -> List[Container]:
        """Horizontally scale an app's ``role`` pool to exactly ``count``.

        Only containers of the given role are counted and affected, so a
        policy scaling workers leaves auxiliary containers (e.g. a queue
        server) untouched.  Extra containers are stopped (newest first);
        missing ones are launched.  Returns the role's containers after
        scaling.
        """
        if count < 0:
            raise SchedulingError(f"count must be >= 0, got {count}")
        running = list(self.running_containers_for_role(app_name, role))
        while len(running) > count:
            victim = running.pop()
            self.stop_container(victim.id)
        while len(running) < count:
            running.append(
                self.launch_container(app_name, cores, gpu=gpu, role=role)
            )
        return running

    # ------------------------------------------------------------------
    # Power capping
    # ------------------------------------------------------------------
    def set_power_cap(self, container_id: str, cap_w: Optional[float]) -> None:
        """Install (or clear, with None) a per-container power cap."""
        container = self.get_container(container_id)
        server = self._servers_by_name[container.server_name]
        if cap_w is None:
            container.set_power_cap(None, 1.0)
            return
        utilization = server.power_model.utilization_for_cap(cap_w, container.cores)
        container.set_power_cap(cap_w, utilization)

    # ------------------------------------------------------------------
    # Power measurement
    # ------------------------------------------------------------------
    def container_power_w(self, container_id: str) -> float:
        """Attributed power of one container at its current utilization."""
        return self._container_power(self.get_container(container_id))

    def _container_power(self, container: Container) -> float:
        """The power model applied to one listed container."""
        server = self._servers_by_name[container.server_name]
        gpu_util = container.effective_utilization if container.has_gpu else 0.0
        return server.power_model.container_power_w(
            container.effective_utilization, container.cores, gpu_util
        )

    def container_powers(self) -> Dict[str, float]:
        """Attributed power of every container, in one measurement pass.

        Equivalent to calling :meth:`container_power_w` per container but
        without the per-call id lookup — the form the per-tick monitor
        sampling uses on the batched hot path.
        """
        return {
            container_id: self._container_power(container)
            for container_id, container in self._containers.items()
        }

    def app_container_powers(self, app_name: str) -> Dict[str, float]:
        """Per-container attributed power of one app's containers."""
        index = self._containers_by_app.get(app_name)
        if not index:
            return {}
        return {
            container_id: self._container_power(container)
            for container_id, container in index.items()
        }

    def app_power_w(self, app_name: str) -> float:
        """Summed attributed power of an application's containers, in
        launch order."""
        return sequential_sum(
            map(self._container_power, self.running_containers_for(app_name))
        )

    def cluster_power_w(self) -> float:
        """Attributed power of all containers plus unallocated idle power."""
        attributed = sequential_sum(
            map(self._container_power, self._containers.values())
        )
        return attributed + self.baseline_power_w()

    def baseline_power_w(self) -> float:
        """Idle power of unallocated cores (the platform's own footprint).

        The per-server terms are kept current by every commit, so a
        topology change re-sums them (in server order, in C) but reads
        no server.  Memoized on the topology version: occupancy only
        moves when containers come, go, or resize, while the settle
        path asks every tick.
        """
        key = self._version
        if self._baseline_key != key:
            self._baseline_w = sequential_sum(self._baseline_terms)
            self._baseline_key = key
        return self._baseline_w
