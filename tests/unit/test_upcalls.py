"""The batched workload kernels re-derive only the worker pools that changed.

A launch or stop binds a new role list for its own ``(app, role)`` pool
and leaves every other pool's list object in place
(:mod:`tests.property.test_cluster_properties` pins that).  The worker
plan a launch or stop rebuilds carries each member's demand write-back
over while its pool list survived, so a scale-storm tick writes demand
only to the containers of the pools that changed.
"""

from repro.cluster.container import Container, reset_container_id_counter
from repro.sim.fleet import build_fleet


class TestScaleStorms:
    PARAMS = {"apps": 40, "ticks": 720, "seed": 2023, "mix": "balanced", "batched": True}

    def test_storm_writes_demand_only_to_changed_pools(self, monkeypatch):
        reset_container_id_counter()
        fleet = build_fleet(self.PARAMS)
        platform = fleet.ecovisor.platform
        written = []
        set_demand = Container.set_demand_utilization

        def spy(container, utilization):
            written.append(container)
            set_demand(container, utilization)

        monkeypatch.setattr(Container, "set_demand_utilization", spy)
        pools = [dict(platform.running_role_index())]
        storms = []

        def observer(tick):
            before, after = pools[-1], dict(platform.running_role_index())
            pools.append(after)
            changed = {
                key
                for key in before.keys() | after.keys()
                if before.get(key, []) != after.get(key, [])
            }
            in_changed = {id(c) for key in changed for c in after.get(key, ())}
            # Tick 0 builds the first plans, which write every pool.
            if tick.index > 0:
                assert {id(c) for c in written} <= in_changed, tick.index
                kept_workers = sum(
                    len(after[key]) for key in after.keys() - changed
                )
                if changed and kept_workers:
                    storms.append((len(changed), kept_workers))
            written.clear()

        fleet.engine.add_observer(observer)
        fleet.engine.run(self.PARAMS["ticks"])
        # Storms changed a few pools while other pools kept running
        # workers, which a full re-plan would have rewritten too.
        assert len(storms) >= 5, storms
        assert any(k <= 5 for k, _ in storms), storms
