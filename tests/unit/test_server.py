"""Server hosting and measurement."""

import pytest

from repro.cluster.container import Container
from repro.cluster.cop import ContainerOrchestrationPlatform
from repro.cluster.server import Server
from repro.core.config import ClusterConfig, ServerConfig
from repro.core.errors import InsufficientResourcesError


@pytest.fixture
def server() -> Server:
    return Server("s0", ServerConfig())


class TestPlacement:
    def test_place_and_host(self, server):
        c = Container("app", 2)
        server.place(c)
        assert server.hosts(c.id)
        assert c.server_name == "s0"
        assert server.allocated_cores == 2
        assert server.free_cores == 2

    def test_overcommit_rejected(self, server):
        server.place(Container("app", 3))
        with pytest.raises(InsufficientResourcesError):
            server.place(Container("app", 2))

    def test_fractional_cores(self, server):
        server.place(Container("app", 0.5))
        assert server.free_cores == pytest.approx(3.5)

    def test_evict_releases_cores(self, server):
        c = Container("app", 2)
        server.place(c)
        server.evict(c.id)
        assert server.free_cores == 4
        assert c.server_name is None

    def test_instance_count_excludes_stopped(self):
        # Only the platform stops a container, evicting it in the same call.
        cop = ContainerOrchestrationPlatform(ClusterConfig(num_servers=1))
        cop.launch_container("app", 1)
        b = cop.launch_container("app", 1)
        cop.stop_container(b.id)
        assert cop.servers[0].instance_count == 1


class TestGrowth:
    def test_can_grow_within_capacity(self, server):
        c = Container("app", 1)
        server.place(c)
        assert server.can_grow(c, 4)

    def test_cannot_grow_beyond_capacity(self, server):
        c = Container("app", 2)
        server.place(c)
        server.place(Container("app", 1))
        assert not server.can_grow(c, 4)


class TestMeasurement:
    def test_baseline_idle_power(self, server):
        server.place(Container("app", 2))
        # Half the cores are free: half the idle power is baseline.
        assert server.baseline_idle_power_w() == pytest.approx(1.35 / 2)

    def test_empty_server_baseline_is_full_idle(self, server):
        assert server.baseline_idle_power_w() == pytest.approx(1.35)
