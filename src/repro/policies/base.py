"""Policy base class.

A *policy* is the application-side controller that receives the ecovisor's
``tick()`` upcall and adjusts the application's power supply and demand —
scaling containers, setting power caps, and steering the virtual battery
(paper Section 3.1).  Policies are deliberately separate from workload
models: the same ML training job runs under carbon-agnostic,
suspend/resume, or Wait&Scale policies, which is exactly the comparison
the paper's evaluation makes.

System-level policies (suspend/resume, static rate-limiting, static
battery smoothing) are implemented with the same machinery — they are
simply policies that ignore application specifics, "one-size-fits-all".
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.core.api import EcovisorAPI
from repro.core.clock import TickInfo
from repro.core.config import ClusterConfig
from repro.core.state import EnergyState
from repro.cluster.power_model import ServerPowerModel
from repro.workloads.base import Application


def worker_power_w(
    cluster_config: ClusterConfig, cores: float = 1.0, gpu: bool = False
) -> float:
    """Full-utilization power of one worker container on this cluster.

    Policies size worker pools from this constant, the way operators size
    from a measured per-replica power draw.
    """
    model = ServerPowerModel(cluster_config.server)
    return model.max_container_power_w(cores, gpu=gpu)


def worker_idle_power_w(cluster_config: ClusterConfig, cores: float = 1.0) -> float:
    """Idle-share power of one worker container on this cluster."""
    model = ServerPowerModel(cluster_config.server)
    return model.min_container_power_w(cores)


class Policy(abc.ABC):
    """Application-side controller driven by the ``tick()`` upcall."""

    #: Vectorized upcall plane opt-in (see ``core/upcalls.py`` and
    #: docs/performance.md).  A class that sets this to True **in its
    #: own body** and provides a classmethod
    #: ``on_tick_batch(cls, tick, signals, rows)`` lets the batched
    #: engine deliver one grouped upcall per class instead of one
    #: ``on_tick`` per app.  The contract: the batch kernel must make
    #: byte-identical decisions and side effects to N sequential
    #: ``on_tick`` calls whose decisions are mutually independent
    #: (reads limited to global tick signals plus the app's own state).
    #: The flag is checked on the class's ``__dict__`` on purpose: a
    #: subclass overriding any behavior falls back to the per-app path
    #: automatically unless it re-opts-in.
    batch_compatible = False

    def __init__(self):
        self._app: Optional[Application] = None
        self._api: Optional[EcovisorAPI] = None

    @property
    def app(self) -> Application:
        if self._app is None:
            raise RuntimeError(f"{type(self).__name__} is not attached")
        return self._app

    @property
    def api(self) -> EcovisorAPI:
        if self._api is None:
            raise RuntimeError(f"{type(self).__name__} is not attached")
        return self._api

    def attach(self, app: Application, api: EcovisorAPI) -> None:
        """Bind the policy to its application and register for ticks."""
        self._app = app
        self._api = api
        api.register_tick(self.on_tick)
        self.on_attach()

    def on_attach(self) -> None:
        """Hook for initial provisioning; runs once after :meth:`attach`."""

    @abc.abstractmethod
    def on_tick(self, tick: TickInfo, state: EnergyState) -> None:
        """React to the tick: adjust scaling, caps, and battery settings.

        ``state`` is the application's frozen
        :class:`~repro.core.state.EnergyState` for this tick — the same
        instance every other consumer of the tick reads.
        """

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def scale_workers(self, count: int, cores: float = 1.0, gpu: bool = False) -> None:
        """Horizontally scale the application's worker pool to ``count``.

        Auxiliary containers (role != ``worker``, e.g. a queue server)
        are left untouched.
        """
        self.api.scale_to(count, cores, gpu=gpu, role="worker")

    def current_worker_count(self) -> int:
        api = self._api
        if api is None:
            raise RuntimeError(f"{type(self).__name__} is not attached")
        return len(api.list_containers(role="worker"))

    def __repr__(self) -> str:
        target = self._app.name if self._app is not None else "<detached>"
        return f"{type(self).__name__}(app={target})"
