"""Placement: LXD's fewest-instances scheduler."""

import pytest

from repro.cluster.container import Container
from repro.cluster.scheduler import FewestInstancesScheduler
from repro.cluster.server import Server
from repro.core.config import ServerConfig
from repro.core.errors import InsufficientResourcesError


def make_servers(count: int = 3) -> list:
    return [Server(f"s{i}", ServerConfig()) for i in range(count)]


class TestFewestInstances:
    def test_prefers_emptiest_instance_count(self):
        servers = make_servers()
        servers[0].place(Container("a", 1))
        servers[0].place(Container("a", 1))
        servers[1].place(Container("a", 1))
        chosen = FewestInstancesScheduler(servers).select(1)
        assert chosen.name == "s2"

    def test_tie_broken_by_name(self):
        servers = make_servers()
        chosen = FewestInstancesScheduler(servers[::-1]).select(1)
        assert chosen.name == "s0"

    def test_skips_full_servers(self):
        servers = make_servers(2)
        servers[0].place(Container("a", 4))
        chosen = FewestInstancesScheduler(servers).select(2)
        assert chosen.name == "s1"

    def test_raises_when_nothing_fits(self):
        servers = make_servers(1)
        servers[0].place(Container("a", 4))
        with pytest.raises(InsufficientResourcesError):
            FewestInstancesScheduler(servers).select(1)

    def test_commit_reads_only_the_named_server(self):
        """A commit copies one server's occupancy; the others keep what
        their last commit (here, construction) read."""
        servers = make_servers(2)
        scheduler = FewestInstancesScheduler(servers)
        servers[0].place(Container("a", 1))
        servers[1].place(Container("a", 4))
        scheduler.commit(servers[0])
        assert scheduler.select(1).name == "s1"
        scheduler.commit(servers[1])
        assert scheduler.select(1).name == "s0"
