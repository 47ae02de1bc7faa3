"""Container placement schedulers.

The paper's prototype uses LXD's default scheduler, which "simply
allocates a container to the server with the fewest container instances"
(Section 4).  That policy is the default here; a best-fit variant is
provided for the scheduling ablation.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Sequence

import numpy as np

from repro.cluster.container import Container
from repro.cluster.server import Server
from repro.core.errors import InsufficientResourcesError


class Scheduler(abc.ABC):
    """Chooses a host server for a new container."""

    @abc.abstractmethod
    def select(self, servers: Sequence[Server], cores: float) -> Server:
        """Return the server that should host a ``cores``-wide container.

        Raises :class:`InsufficientResourcesError` when no server fits.
        """

    def commit(self, server: Server, cores: float) -> None:
        """Note that a ``cores``-wide container was placed on ``server``.

        The platform calls this right after placing the container that
        the preceding :meth:`select` chose, letting stateful schedulers
        update occupancy views incrementally instead of rescanning the
        cluster on the next placement.  Default: no-op.
        """


class FewestInstancesScheduler(Scheduler):
    """LXD's default policy: fewest running instances first.

    The selection key is ``(running instances, server name)``.  The scan
    is vectorized: per-server instance counts and allocated cores live
    in name-ordered numpy arrays rebuilt whenever a container mutation
    (stop/resize, tracked by ``Container._mutation_epoch``) could
    have changed occupancy, and updated in place on :meth:`commit` —
    placements do not bump the epoch, so a launch burst pays one argmin
    per placement instead of a full cluster walk.
    """

    def __init__(self):
        self._src: Optional[Sequence[Server]] = None
        self._sorted: list[Server] = []
        self._pos: Dict[str, int] = {}
        self._caps = np.zeros(0)
        self._alloc = np.zeros(0)
        self._counts = np.zeros(0)
        self._epoch = -1

    def _refresh(self, servers: Sequence[Server]) -> None:
        if self._src is not servers:
            self._sorted = sorted(servers, key=lambda s: s.name)
            self._pos = {s.name: i for i, s in enumerate(self._sorted)}
            self._caps = np.fromiter(
                (s.total_cores for s in self._sorted),
                dtype=float,
                count=len(self._sorted),
            )
            self._src = servers
        n = len(self._sorted)
        occ = [s.occupancy() for s in self._sorted]
        self._alloc = np.fromiter((o[0] for o in occ), dtype=float, count=n)
        self._counts = np.fromiter((o[1] for o in occ), dtype=float, count=n)
        self._epoch = Container._mutation_epoch

    def select(self, servers: Sequence[Server], cores: float) -> Server:
        if self._src is not servers or self._epoch != Container._mutation_epoch:
            self._refresh(servers)
        fit = self._caps - self._alloc + 1e-9 >= cores
        if not fit.any():
            raise InsufficientResourcesError(
                f"no server can host a {cores:g}-core container"
            )
        # argmin returns the first occurrence of the minimum count, and
        # the arrays are name-ordered, so ties break exactly like the
        # scalar (count, name) key.
        candidates = np.where(fit, self._counts, np.inf)
        return self._sorted[int(np.argmin(candidates))]

    def commit(self, server: Server, cores: float) -> None:
        if self._src is None or self._epoch != Container._mutation_epoch:
            return
        pos = self._pos.get(server.name)
        if pos is None:
            return
        self._alloc[pos] += cores
        self._counts[pos] += 1.0


class BestFitScheduler(Scheduler):
    """Packs containers onto the fullest server that still fits.

    Denser packing frees whole servers, which matters when a policy wants
    to power servers off; used by the scheduling ablation bench.
    """

    def select(self, servers: Sequence[Server], cores: float) -> Server:
        candidates = [s for s in servers if s.can_host(cores)]
        if not candidates:
            raise InsufficientResourcesError(
                f"no server can host a {cores:g}-core container"
            )
        return min(candidates, key=lambda s: (s.free_cores, s.name))


class WorstFitScheduler(Scheduler):
    """Spreads load: picks the emptiest server (most free cores)."""

    def select(self, servers: Sequence[Server], cores: float) -> Server:
        candidates = [s for s in servers if s.can_host(cores)]
        if not candidates:
            raise InsufficientResourcesError(
                f"no server can host a {cores:g}-core container"
            )
        return max(candidates, key=lambda s: (s.free_cores, s.name))
