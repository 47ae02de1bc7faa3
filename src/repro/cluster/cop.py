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

The ecovisor wraps this platform (it has privileged access to these
functions); applications reach it only through the ecovisor API.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.container import Container
from repro.cluster.scheduler import FewestInstancesScheduler, Scheduler
from repro.cluster.server import Server
from repro.core.config import ClusterConfig
from repro.core.errors import (
    InsufficientResourcesError,
    SchedulingError,
    UnknownContainerError,
)


class ContainerOrchestrationPlatform:
    """Cluster-wide container lifecycle, placement, and capping."""

    def __init__(
        self,
        config: ClusterConfig | None = None,
        scheduler: Scheduler | None = None,
    ):
        self._config = config or ClusterConfig()
        self._config.validate()
        self._scheduler = scheduler or FewestInstancesScheduler()
        self._servers = [
            Server(f"server-{i}", self._config.server)
            for i in range(self._config.num_servers)
        ]
        self._servers_by_name: Dict[str, Server] = {
            server.name: server for server in self._servers
        }
        self._containers: Dict[str, Container] = {}
        # Per-application index of the same containers.  Each inner dict
        # preserves launch order, which equals the global insertion order
        # filtered by app — so `running_containers_for` keeps its
        # historical ordering while dropping from O(all containers) to
        # O(app's).
        self._containers_by_app: Dict[str, Dict[str, Container]] = {}
        # Topology generation: bumped on launch/stop, so batched readers
        # can key derived caches on it (with Container._mutation_epoch
        # where core allocations matter) instead of rescanning the
        # container population every tick.
        self._version = 0
        self._role_cache: Dict[tuple, List[Container]] = {}
        self._role_index: Optional[Dict[tuple, List[Container]]] = None
        self._cache_version = -1
        self._baseline_key = (-1, -1)
        self._baseline_w = 0.0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def config(self) -> ClusterConfig:
        return self._config

    @property
    def version(self) -> int:
        """Topology generation; changes whenever containers come or go."""
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

    def _sync_generation_caches(self) -> None:
        # The memoized role views are keyed on the topology version: the
        # batched tick path asks for every app's worker pool every tick,
        # while containers come and go orders of magnitude less often.
        # Resizes (which bump only the mutation epoch) leave these views
        # untouched.
        if self._cache_version != self._version:
            self._role_cache = {}
            self._role_index = None
            self._cache_version = self._version

    def running_containers_for_role(
        self, app_name: str, role: str
    ) -> List[Container]:
        """One app's containers of one role, memoized per topology
        version (policies and workloads consult the worker pool several
        times per app per tick).

        Returns the cached list itself to keep the fleet hot path
        allocation-free — callers must treat it as read-only.
        """
        self._sync_generation_caches()
        key = (app_name, role)
        cached = self._role_cache.get(key)
        if cached is None:
            index = self._containers_by_app.get(app_name)
            cached = [c for c in index.values() if c.role == role] if index else []
            self._role_cache[key] = cached
        return cached

    def running_role_index(self) -> Dict[tuple, List[Container]]:
        """Every container grouped by ``(app_name, role)``.

        Lists are in launch order (the per-app index order filtered by
        role), so each entry equals the corresponding
        :meth:`running_containers_for_role` result; apps with no
        containers of a role are simply absent.  Built with one walk
        over the container population and memoized per topology version
        — this replaces the O(apps) per-app call storm when the batched
        upcall plane re-plans a large fleet after a topology change.
        Returns the cached dict itself; callers must treat it (and its
        lists) as read-only.
        """
        self._sync_generation_caches()
        index = self._role_index
        if index is None:
            index = {}
            for container in self._containers.values():
                index.setdefault(
                    (container._app_name, container._role), []
                ).append(container)
            self._role_index = index
        return index

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
        server = self._scheduler.select(self._servers, cores)
        server.place(container)
        self._scheduler.commit(server, container.cores)
        self._containers[container.id] = container
        self._containers_by_app.setdefault(app_name, {})[container.id] = container
        self._version += 1
        return container

    def stop_container(self, container_id: str) -> None:
        """Evict, stop and deregister a container, releasing its resources."""
        container = self.get_container(container_id)
        self._servers_by_name[container.server_name].evict(container_id)
        container._stop()
        del self._containers[container_id]
        del self._containers_by_app[container.app_name][container_id]
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
        if server.can_grow(container, cores):
            container.set_cores(cores)
            self._refresh_power_cap(container)
            return
        # Migrate: evict, resize, re-place (stateful LXD migration).
        server.evict(container_id)
        old_cores = container.cores
        container.set_cores(cores)
        try:
            target = self._scheduler.select(self._servers, cores)
        except InsufficientResourcesError:
            container.set_cores(old_cores)
            server.place(container)
            raise
        target.place(container)
        self._scheduler.commit(target, container.cores)
        self._refresh_power_cap(container)

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
        """Summed attributed power of an application's containers."""
        return sum(
            self._container_power(c) for c in self.running_containers_for(app_name)
        )

    def cluster_power_w(self) -> float:
        """Attributed power of all containers plus unallocated idle power."""
        attributed = sum(
            self._container_power(c) for c in self._containers.values()
        )
        return attributed + self.baseline_power_w()

    def baseline_power_w(self) -> float:
        """Idle power of unallocated cores (the platform's own footprint).

        Memoized on the (topology version, container mutation epoch)
        generation: occupancy only moves when containers come, go, or
        resize, while the settle path asks every tick.
        """
        key = (self._version, Container._mutation_epoch)
        if self._baseline_key != key:
            # Fused form of sum(s.baseline_idle_power_w() for s in
            # self._servers): identical per-term arithmetic and
            # summation order, without the per-server property/genexpr
            # machinery — the settle path re-sums every topology
            # generation, which at fleet scale is a hot loop.
            acc = 0.0
            for server in self._servers:
                config = server._config
                cores = config.cores
                acc += (
                    (cores - server.occupancy()[0]) / cores
                ) * config.idle_power_w
            self._baseline_w = acc
            self._baseline_key = key
        return self._baseline_w
