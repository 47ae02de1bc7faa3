"""Container placement.

The paper's prototype uses LXD's default scheduler, which "simply
allocates a container to the server with the fewest container instances"
(Section 4).  :class:`FewestInstancesScheduler` is that policy, and the
platform places every container with it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import List

from repro.cluster.server import Server
from repro.core.errors import InsufficientResourcesError


class FewestInstancesScheduler:
    """LXD's default policy: fewest running instances first.

    The selection key is ``(running instances, server name)``.  Built
    once over the platform's server list, the scheduler keeps each
    server's room (``cores - allocated + 1e-9``, the fit test's left
    side) and instance count, and one group of servers per instance
    count, each group in name order.  A placement walks the groups from
    the lowest count and takes the first server with room, which is the
    lowest key among the servers that fit.

    The platform calls :meth:`commit` after every place, evict and
    resize, and a commit copies that one server's occupancy memo (which
    re-sums in insertion order, so the state always holds exactly what
    a fresh read of every server would give).  A server changes group
    only when its instance count changed.
    """

    def __init__(self, servers: List[Server]):
        self._servers = sorted(servers, key=lambda s: s.name)
        self._pos = {s.name: i for i, s in enumerate(self._servers)}
        n = len(self._servers)
        self._caps = [float(s.total_cores) for s in self._servers]
        self._room = [0.0] * n
        self._counts = [0] * n
        # _groups[c]: positions (into the name-ordered servers) of the
        # servers hosting c instances, ascending.
        self._groups: List[List[int]] = [list(range(n))]
        # Every server starts in group 0; each commit sets its room and
        # moves it to the group for its count.
        for server in self._servers:
            self.commit(server)

    def select(self, cores: float) -> Server:
        """The server that should host a ``cores``-wide container.

        Raises :class:`InsufficientResourcesError` when no server fits.
        """
        room = self._room
        for group in self._groups:
            for pos in group:
                if room[pos] >= cores:
                    return self._servers[pos]
        raise InsufficientResourcesError(
            f"no server can host a {cores:g}-core container"
        )

    def commit(self, server: Server) -> None:
        """Re-read ``server``'s occupancy after it placed, evicted or
        resized a container."""
        pos = self._pos[server.name]
        allocated, count = server.occupancy()
        self._room[pos] = self._caps[pos] - allocated + 1e-9
        old = self._counts[pos]
        if count == old:
            return
        self._counts[pos] = count
        groups = self._groups
        group = groups[old]
        del group[bisect_left(group, pos)]
        while len(groups) <= count:
            groups.append([])
        insort(groups[count], pos)
