"""Container orchestration platform: lifecycle, scaling, capping, power."""

import pytest

from repro.cluster.cop import ContainerOrchestrationPlatform
from repro.core.config import ClusterConfig, ServerConfig
from repro.core.errors import (
    InsufficientResourcesError,
    SchedulingError,
    UnknownContainerError,
)


@pytest.fixture
def cop() -> ContainerOrchestrationPlatform:
    return ContainerOrchestrationPlatform(
        ClusterConfig(num_servers=3, server=ServerConfig())
    )


class TestLifecycle:
    def test_launch_places_container(self, cop):
        c = cop.launch_container("app", 2)
        assert cop.has_container(c.id)
        assert c.server_name is not None
        assert cop.free_cores == 10

    def test_stop_releases_resources(self, cop):
        c = cop.launch_container("app", 2)
        cop.stop_container(c.id)
        assert not cop.has_container(c.id)
        assert cop.free_cores == 12

    def test_unknown_container_rejected(self, cop):
        with pytest.raises(UnknownContainerError):
            cop.get_container("nope")

    def test_stop_app_removes_all(self, cop):
        cop.launch_container("a", 1)
        cop.launch_container("a", 1)
        cop.launch_container("b", 1)
        stopped = cop.stop_app("a")
        assert len(stopped) == 2
        assert len(cop.running_containers_for("a")) == 0
        assert len(cop.running_containers_for("b")) == 1

    def test_rejects_nonpositive_cores(self, cop):
        with pytest.raises(SchedulingError):
            cop.launch_container("app", 0)


class TestHorizontalScaling:
    def test_scale_up(self, cop):
        cop.scale_app_to("app", 4, cores=1)
        assert len(cop.running_containers_for("app")) == 4

    def test_scale_down(self, cop):
        cop.scale_app_to("app", 4, cores=1)
        cop.scale_app_to("app", 1, cores=1)
        assert len(cop.running_containers_for("app")) == 1

    def test_scale_to_zero(self, cop):
        cop.scale_app_to("app", 3, cores=1)
        cop.scale_app_to("app", 0, cores=1)
        assert cop.running_containers_for("app") == []

    def test_scale_respects_roles(self, cop):
        coordinator = cop.launch_container("app", 1, role="coordinator")
        cop.scale_app_to("app", 3, cores=1)  # workers only
        cop.scale_app_to("app", 0, cores=1)
        remaining = cop.running_containers_for("app")
        assert [c.id for c in remaining] == [coordinator.id]

    def test_negative_count_rejected(self, cop):
        with pytest.raises(SchedulingError):
            cop.scale_app_to("app", -1, cores=1)

    def test_scale_beyond_capacity_raises(self, cop):
        with pytest.raises(InsufficientResourcesError):
            cop.scale_app_to("app", 13, cores=1)


class TestVerticalScaling:
    def test_grow_in_place(self, cop):
        c = cop.launch_container("app", 1)
        cop.set_container_cores(c.id, 3)
        assert c.cores == 3

    def test_grow_with_migration(self, cop):
        # Pack the container's host so in-place growth is impossible but
        # another server can take the resized container.
        small = cop.launch_container("app", 1)
        host = small.server_name
        host_server = next(s for s in cop.servers if s.name == host)
        filler = cop.launch_container("filler", host_server.free_cores)
        # Force the filler onto the same host if the scheduler spread it.
        if filler.server_name != host:
            for server in cop.servers:
                if server.hosts(filler.id):
                    server.evict(filler.id)
            host_server.place(filler)
        cop.set_container_cores(small.id, 4)
        assert small.cores == 4
        assert small.server_name is not None
        assert small.server_name != host

    def test_impossible_growth_restores_state(self, cop):
        containers = [cop.launch_container("app", 4) for _ in range(3)]
        victim = containers[0]
        with pytest.raises(InsufficientResourcesError):
            cop.set_container_cores(victim.id, 5)
        assert victim.cores == 4
        assert victim.server_name is not None


class TestPowerCapping:
    def test_cap_translated_to_utilization(self, cop):
        c = cop.launch_container("app", 1)
        cop.set_power_cap(c.id, 0.79375)  # idle share + half dynamic range
        assert c.cap_utilization == pytest.approx(0.5)

    def test_cap_cleared(self, cop):
        c = cop.launch_container("app", 1)
        cop.set_power_cap(c.id, 0.5)
        cop.set_power_cap(c.id, None)
        assert c.power_cap_w is None
        assert c.cap_utilization == 1.0


class TestPowerMeasurement:
    def test_container_power_tracks_utilization(self, cop):
        c = cop.launch_container("app", 1)
        c.set_demand_utilization(1.0)
        assert cop.container_power_w(c.id) == pytest.approx(1.25)
        c.set_demand_utilization(0.0)
        assert cop.container_power_w(c.id) == pytest.approx(0.3375)

    def test_cap_limits_measured_power(self, cop):
        c = cop.launch_container("app", 1)
        c.set_demand_utilization(1.0)
        cop.set_power_cap(c.id, 0.8)
        assert cop.container_power_w(c.id) == pytest.approx(0.8)

    def test_app_power_sums_containers(self, cop):
        a = cop.launch_container("app", 1)
        b = cop.launch_container("app", 1)
        for c in (a, b):
            c.set_demand_utilization(1.0)
        assert cop.app_power_w("app") == pytest.approx(2.5)

    def test_cluster_power_includes_baseline(self, cop):
        cop.launch_container("app", 1).set_demand_utilization(1.0)
        # 1.25 W container + idle of 11 unallocated cores.
        expected_baseline = 11 / 4 * 1.35
        assert cop.cluster_power_w() == pytest.approx(1.25 + expected_baseline)

    def test_baseline_power_full_when_empty(self, cop):
        assert cop.baseline_power_w() == pytest.approx(3 * 1.35)


class TestBulkPowerMeasurement:
    def test_container_powers_matches_per_container_calls(self, cop):
        ids = [cop.launch_container("app", 1).id for _ in range(3)]
        ids += [cop.launch_container("other", 2).id]
        for c in cop.containers():
            c.set_demand_utilization(0.7)
        bulk = cop.container_powers()
        assert set(bulk) == set(ids)
        for container_id in ids:
            assert bulk[container_id] == cop.container_power_w(container_id)

    def test_app_container_powers_matches_filtered_calls(self, cop):
        for _ in range(2):
            cop.launch_container("a", 1)
        cop.launch_container("b", 1)
        for c in cop.containers():
            c.set_demand_utilization(0.5)
        powers = cop.app_container_powers("a")
        assert set(powers) == {c.id for c in cop.running_containers_for("a")}
        for container_id, power in powers.items():
            assert power == cop.container_power_w(container_id)
        assert cop.app_container_powers("missing") == {}

    def test_app_power_equals_sum_of_bulk_readings(self, cop):
        for _ in range(3):
            cop.launch_container("a", 1)
        for c in cop.containers():
            c.set_demand_utilization(0.9)
        readings = cop.container_powers()
        expected = sum(
            readings[c.id] for c in cop.running_containers_for("a")
        )
        assert cop.app_power_w("a") == expected


class TestPerAppIndex:
    def test_index_tracks_launch_and_stop(self, cop):
        c1 = cop.launch_container("a", 1)
        c2 = cop.launch_container("a", 1)
        cop.launch_container("b", 1)
        assert [c.id for c in cop.running_containers_for("a")] == [c1.id, c2.id]
        cop.stop_container(c1.id)
        assert [c.id for c in cop.running_containers_for("a")] == [c2.id]
        assert len(cop.running_containers_for("b")) == 1

    def test_index_preserves_launch_order_after_scaling(self, cop):
        cop.scale_app_to("a", 3, 1)
        before = [c.id for c in cop.running_containers_for("a")]
        cop.scale_app_to("a", 1, 1)  # stops newest first
        assert [c.id for c in cop.running_containers_for("a")] == before[:1]

    def test_stop_app_clears_index(self, cop):
        cop.launch_container("a", 1)
        cop.launch_container("a", 1)
        cop.stop_app("a")
        assert cop.running_containers_for("a") == []
        assert cop.app_power_w("a") == 0.0


class TestCapSurvivesResize:
    def test_resize_recomputes_cap_clamp(self, cop):
        c = cop.launch_container("app", 1)
        cop.set_power_cap(c.id, 1.0)
        cop.set_container_cores(c.id, 2)
        c.set_demand_utilization(1.0)
        idle_floor = 2 / 4 * 1.35
        assert cop.container_power_w(c.id) <= max(1.0, idle_floor) + 1e-9

    def test_clearing_cap_after_resize(self, cop):
        c = cop.launch_container("app", 1)
        cop.set_power_cap(c.id, 1.0)
        cop.set_container_cores(c.id, 2)
        cop.set_power_cap(c.id, None)
        assert c.power_cap_w is None
