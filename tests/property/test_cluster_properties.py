"""Property-based tests of orchestration-platform invariants.

Under any sequence of launches, stops, scalings, resizes (refused
migrations included), and cap and demand changes: no server is ever
over-committed, every listed container is running and placed on exactly
the server it names, the memoized per-app and role views equal a fresh
regrouping of the listed containers, the scheduler's per-server state
equals a fresh read of every server and its pick equals a fresh
``(instances, name)`` scan, the idle baseline equals a walk over every
server, an operation replaces only the role lists of the pools it acted
on and never changes a list it handed out, and measured power stays
within the cluster's physical envelope.
"""

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.cluster.cop import ContainerOrchestrationPlatform
from repro.core.config import ClusterConfig, ServerConfig
from repro.core.errors import InsufficientResourcesError, UnknownContainerError

CLUSTER = ClusterConfig(num_servers=4, server=ServerConfig())
# Twelve servers: name order ("server-10" before "server-2") differs
# from the platform's index order.
WIDE = ClusterConfig(num_servers=12, server=ServerConfig(cores=2))
APPS = ("app", "other")
ROLES = ("worker", "coordinator")

operations = st.lists(
    st.one_of(
        st.tuples(st.just("launch"), st.integers(min_value=1, max_value=4),
                  st.sampled_from(APPS), st.sampled_from(ROLES)),
        st.tuples(st.just("stop"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("resize"), st.integers(min_value=0, max_value=30),
                  st.integers(min_value=1, max_value=4)),
        st.tuples(st.just("cap"), st.integers(min_value=0, max_value=30),
                  st.floats(min_value=0.0, max_value=6.0)),
        st.tuples(st.just("scale"), st.integers(min_value=0, max_value=8),
                  st.sampled_from(APPS), st.sampled_from(ROLES)),
        st.tuples(st.just("demand"), st.integers(min_value=0, max_value=30),
                  st.floats(min_value=0.0, max_value=1.0)),
    ),
    max_size=40,
)

# A migration that succeeds: server-0 hosts 2 + 2 cores, and growing
# the first container to 3 moves it to server-1.  Drawn operation lists
# rarely produce one, so the placement properties pin it as an example.
MIGRATION = (
    [("launch", 2, "app", "worker")] + [("launch", 1, "app", "worker")] * 3
    + [("launch", 2, "app", "worker"), ("resize", 0, 3)]
)

# The two lowest-count servers are full, so a 2-core launch skips their
# whole instance-count group for the next one.
NEAR_FULL = (
    [("launch", 4, "app", "worker")] * 2 + [("launch", 1, "app", "worker")] * 4
    + [("launch", 2, "other", "worker")]
)


def fresh_allocated(server) -> float:
    """A server's allocated cores, re-summed in insertion order."""
    allocated = 0.0
    for container in server.containers:
        allocated += container.cores
    return allocated


def apply_ops(cop: ContainerOrchestrationPlatform, ops) -> None:
    for op in ops:
        kind = op[0]
        containers = cop.containers()
        try:
            if kind == "launch":
                cop.launch_container(op[2], op[1], role=op[3])
            elif kind == "stop" and containers:
                cop.stop_container(containers[op[1] % len(containers)].id)
            elif kind == "resize" and containers:
                cop.set_container_cores(
                    containers[op[1] % len(containers)].id, op[2]
                )
            elif kind == "cap" and containers:
                cop.set_power_cap(containers[op[1] % len(containers)].id, op[2])
            elif kind == "scale":
                cop.scale_app_to(op[2], op[1], cores=1, role=op[3])
            elif kind == "demand" and containers:
                containers[op[1] % len(containers)].set_demand_utilization(op[2])
        except (InsufficientResourcesError, UnknownContainerError):
            # Legitimate rejections (full cluster, raced ids) must leave
            # the platform consistent; the invariants below verify that.
            pass


class TestPlacementInvariants:
    @given(ops=operations)
    @settings(max_examples=60, deadline=None)
    @example(ops=MIGRATION)
    def test_no_server_overcommitted(self, ops):
        cop = ContainerOrchestrationPlatform(CLUSTER)
        apply_ops(cop, ops)
        for server in cop.servers:
            assert server.allocated_cores <= server.total_cores + 1e-9

    @given(ops=operations)
    @settings(max_examples=60, deadline=None)
    @example(ops=MIGRATION)
    def test_every_running_container_placed_exactly_once(self, ops):
        cop = ContainerOrchestrationPlatform(CLUSTER)
        apply_ops(cop, ops)
        for container in cop.containers():
            assert container.is_running
            hosts = [s for s in cop.servers if s.hosts(container.id)]
            assert len(hosts) == 1
            assert hosts[0].name == container.server_name

    @given(ops=operations)
    @settings(max_examples=60, deadline=None)
    def test_views_equal_a_fresh_regrouping(self, ops):
        # Checked after every operation, so a memo kept past the change
        # that should have dropped it is read while stale.
        cop = ContainerOrchestrationPlatform(CLUSTER)
        for op in ops:
            apply_ops(cop, [op])
            listed = cop.containers()
            groups = {}
            for container in listed:
                groups.setdefault(
                    (container.app_name, container.role), []
                ).append(container)
            assert cop.running_role_index() == groups
            for app in APPS:
                assert cop.running_containers_for(app) == [
                    c for c in listed if c.app_name == app
                ]
                for role in ROLES:
                    assert cop.running_containers_for_role(app, role) == (
                        groups.get((app, role), [])
                    )

    @given(ops=operations)
    @settings(max_examples=60, deadline=None)
    @example(ops=MIGRATION)
    def test_scheduler_state_is_a_fresh_read(self, ops):
        # The platform commits each server it placed on, evicted from
        # or resized on; checked after every operation, so a commit it
        # skipped leaves the state wrong at the next check.  Each server
        # sits in the group for its instance count, groups in name order.
        cop = ContainerOrchestrationPlatform(CLUSTER)
        scheduler = cop._scheduler
        for op in ops:
            apply_ops(cop, [op])
            servers = scheduler._servers
            assert [s.name for s in servers] == sorted(s.name for s in cop.servers)
            counts = [len(server.containers) for server in servers]
            groups = {}
            for pos, count in enumerate(counts):
                groups.setdefault(count, []).append(pos)
            room = [s.total_cores - fresh_allocated(s) + 1e-9 for s in servers]
            assert scheduler._room == room, op
            assert scheduler._counts == counts, op
            kept = {c: group for c, group in enumerate(scheduler._groups) if group}
            assert kept == groups, op

    @given(ops=operations, cluster=st.sampled_from([CLUSTER, WIDE]))
    @settings(max_examples=60, deadline=None)
    @example(ops=MIGRATION, cluster=CLUSTER)
    @example(ops=NEAR_FULL, cluster=CLUSTER)
    def test_select_picks_the_fewest_instances_by_name(self, ops, cluster):
        # After every operation and for every request width, the pick
        # is what a fresh (instances, name) scan over the servers with
        # room picks, and select raises exactly when none has room.
        cop = ContainerOrchestrationPlatform(cluster)
        for op in ops:
            apply_ops(cop, [op])
            for cores in (1, 2, 3, 4):
                fits = [
                    server
                    for server in cop.servers
                    if server.total_cores - fresh_allocated(server) + 1e-9 >= cores
                ]
                try:
                    chosen = cop._scheduler.select(cores)
                except InsufficientResourcesError:
                    assert not fits, (op, cores)
                    continue
                expected = min(fits, key=lambda s: (len(s.containers), s.name))
                assert chosen is expected, (op, cores)

    @given(ops=operations, cluster=st.sampled_from([CLUSTER, WIDE]))
    @settings(max_examples=60, deadline=None)
    @example(ops=MIGRATION, cluster=CLUSTER)
    def test_baseline_equals_a_walk_over_every_server(self, ops, cluster):
        # The platform refreshes one server's idle term per commit; the
        # sum must keep the bits of a left-to-right walk in server order.
        cop = ContainerOrchestrationPlatform(cluster)
        for op in ops:
            apply_ops(cop, [op])
            walk = 0.0
            for server in cop.servers:
                cores = server.config.cores
                walk += (
                    (cores - fresh_allocated(server)) / cores
                ) * server.config.idle_power_w
            assert cop.baseline_power_w() == walk, op

    @given(ops=operations)
    @settings(max_examples=60, deadline=None)
    def test_ops_replace_only_their_own_pool_lists(self, ops):
        # The batched tick path carries per-pool state over for every
        # pool whose list object survived an operation, so a pool the
        # operation did not act on must keep its list object, and no
        # list handed out earlier may change under its holder.
        cop = ContainerOrchestrationPlatform(CLUSTER)
        handed_out = []
        for op in ops:
            before = dict(cop.running_role_index())
            handed_out.extend((lst, list(lst)) for lst in before.values())
            acted = set()
            containers = cop.containers()
            if op[0] in ("launch", "scale"):
                acted.add((op[2], op[3]))
            elif op[0] == "stop" and containers:
                victim = containers[op[1] % len(containers)]
                acted.add((victim.app_name, victim.role))
            apply_ops(cop, [op])
            after = cop.running_role_index()
            for key, lst in before.items():
                if key not in acted:
                    assert after.get(key) is lst, (op, key)
            for lst, held in handed_out:
                assert lst == held, op

    @given(ops=operations)
    @settings(max_examples=60, deadline=None)
    @example(ops=MIGRATION)
    def test_free_cores_accounting(self, ops):
        cop = ContainerOrchestrationPlatform(CLUSTER)
        apply_ops(cop, ops)
        allocated = sum(c.cores for c in cop.containers())
        assert cop.free_cores == (
            __import__("pytest").approx(cop.total_cores - allocated)
        )


class TestPowerEnvelope:
    @given(ops=operations)
    @settings(max_examples=60, deadline=None)
    def test_cluster_power_within_physical_envelope(self, ops):
        cop = ContainerOrchestrationPlatform(CLUSTER)
        apply_ops(cop, ops)
        power = cop.cluster_power_w()
        assert CLUSTER.num_servers * 0.0 <= power
        assert power <= CLUSTER.max_power_w + 1e-9

    @given(ops=operations)
    @settings(max_examples=60, deadline=None)
    def test_capped_containers_respect_caps(self, ops):
        cop = ContainerOrchestrationPlatform(CLUSTER)
        apply_ops(cop, ops)
        for container in cop.containers():
            if container.power_cap_w is None:
                continue
            measured = cop.container_power_w(container.id)
            # Caps cannot squeeze below the idle floor, but above it the
            # measured draw must honor the cap.
            idle_floor = (
                container.cores / CLUSTER.server.cores
            ) * CLUSTER.server.idle_power_w
            assert measured <= max(container.power_cap_w, idle_floor) + 1e-9
