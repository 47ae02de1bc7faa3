"""The batched workload kernels re-derive only the worker pools that changed.

A launch or stop binds a new role list for its own ``(app, role)`` pool
and leaves every other pool's list object in place
(:mod:`tests.property.test_cluster_properties` pins that).  The worker
plan a launch or stop rebuilds carries each member's demand write-back
and its count columns (``ml_share``, ``spark_denom``) over while its
pool list survived, so a scale-storm tick writes demand only to the
containers of the pools that changed and derives their columns only.
"""

from repro.cluster.container import Container, reset_container_id_counter
from repro.core.upcalls import _WorkerPlan
from repro.sim.fleet import build_fleet
from repro.workloads.mltrain import MLTrainingJob
from repro.workloads.spark import SparkJob


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


class TestCountColumns:
    DERIVE = {
        "ml_share": MLTrainingJob._productive_share,
        "spark_denom": SparkJob._sync_denom,
    }

    def test_columns_equal_a_fresh_derivation_every_tick(self):
        # After every tick of a storm-heavy day, each group's current
        # plan holds, in every column it derived, what the member's
        # worker count derives from scratch.
        reset_container_id_counter()
        fleet = build_fleet(TestScaleStorms.PARAMS)
        platform = fleet.ecovisor.platform
        plane = fleet.engine._plane
        checked = {name: 0 for name in self.DERIVE}
        # Distinct plans that carried a column over (kept alive, so no
        # two share an id).
        carried = {name: {} for name in self.DERIVE}

        def observer(tick):
            for item in plane._w_items:
                for rows in getattr(item, "groups", ()):
                    plan = rows._plan
                    if plan is None:
                        continue
                    assert rows._plan_key == platform.version, tick.index
                    counts = [
                        len(platform.running_containers_for_role(app.name, "worker"))
                        for app in rows.apps
                    ]
                    assert plan.counts.tolist() == counts, tick.index
                    for name, column in plan.columns.items():
                        derive = self.DERIVE[name]
                        fresh = [derive(app, n) for app, n in zip(rows.apps, counts)]
                        assert column.tolist() == fresh, (tick.index, name)
                        checked[name] += 1
                        if name in plan._carried and not plan.kept.all():
                            carried[name][id(plan)] = plan

        fleet.engine.add_observer(observer)
        fleet.engine.run(TestScaleStorms.PARAMS["ticks"])
        for name in self.DERIVE:
            assert checked[name] >= 100, checked
            # Plans built by storms that changed some pools carried the
            # column over from the plan before.
            assert len(carried[name]) >= 5, {k: len(v) for k, v in carried.items()}

    def test_a_new_plan_derives_only_the_changed_members(self):
        apps = ["a", "b", "c"]
        pools = [[1], [2, 3], []]
        calls = []

        def derive(app, count):
            calls.append(app)
            return float(count) + 0.5

        first = _WorkerPlan(pools)
        assert first.count_column("x", apps, derive).tolist() == [1.5, 2.5, 0.5]
        assert first.count_column("x", apps, derive) is first.columns["x"]
        assert calls == apps
        calls.clear()
        second = _WorkerPlan([pools[0], [2], pools[2]], first)
        assert second.count_column("x", apps, derive).tolist() == [1.5, 1.5, 0.5]
        assert calls == ["b"]
        # The first plan's column is never written through.
        assert first.columns["x"].tolist() == [1.5, 2.5, 0.5]
        # A column the previous plan never derived is derived in full.
        calls.clear()
        second.count_column("y", apps, derive)
        assert calls == apps
