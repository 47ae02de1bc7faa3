"""Container placement.

The paper's prototype uses LXD's default scheduler, which "simply
allocates a container to the server with the fewest container instances"
(Section 4).  :class:`FewestInstancesScheduler` is that policy, and the
platform places every container with it.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.cluster.server import Server
from repro.core.errors import InsufficientResourcesError


class FewestInstancesScheduler:
    """LXD's default policy: fewest running instances first.

    The selection key is ``(running instances, server name)``.  Built
    once over the platform's server list, the scheduler keeps per-server
    allocated cores and instance counts in name-ordered numpy arrays, so
    a placement is one vectorized scan.  The platform calls
    :meth:`commit` after every place, evict and resize, and a commit
    copies that one server's occupancy memo into the arrays: the memo
    re-sums in insertion order, so the arrays always hold exactly what a
    fresh read of every server would give.
    """

    def __init__(self, servers: List[Server]):
        self._servers = sorted(servers, key=lambda s: s.name)
        self._pos = {s.name: i for i, s in enumerate(self._servers)}
        n = len(self._servers)
        self._caps = np.fromiter(
            (s.total_cores for s in self._servers), dtype=float, count=n
        )
        self._alloc = np.zeros(n)
        self._counts = np.zeros(n)
        for server in self._servers:
            self.commit(server)

    def select(self, cores: float) -> Server:
        """The server that should host a ``cores``-wide container.

        Raises :class:`InsufficientResourcesError` when no server fits.
        """
        fit = self._caps - self._alloc + 1e-9 >= cores
        if not fit.any():
            raise InsufficientResourcesError(
                f"no server can host a {cores:g}-core container"
            )
        # argmin returns the first occurrence of the minimum count, and
        # the arrays are name-ordered, so ties break exactly like the
        # scalar (count, name) key.
        candidates = np.where(fit, self._counts, np.inf)
        return self._servers[int(np.argmin(candidates))]

    def commit(self, server: Server) -> None:
        """Re-read ``server``'s occupancy after it placed, evicted or
        resized a container."""
        pos = self._pos[server.name]
        self._alloc[pos], self._counts[pos] = server.occupancy()
