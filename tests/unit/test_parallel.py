"""Barrier-synchronized parallel job with stragglers and replicas."""

import numpy as np
import pytest

from repro.core.api import connect
from repro.core.clock import SimulationClock
from repro.core.config import ShareConfig
from repro.workloads.parallel import ParallelJob
from tests.conftest import make_ecovisor


def bind(job):
    eco = make_ecovisor(solar_w=0.0)
    eco.admit_app(job.name, ShareConfig())
    api = connect(eco, job.name)
    job.bind(api)
    containers = api.scale_to(job.num_tasks, cores=1)
    for task, container in enumerate(containers):
        job.assign_task_container(task, container.id)
    return eco, api


def drive(eco, job, ticks, served_fraction=1.0, clock=None):
    clock = clock or SimulationClock(60.0)
    for _ in range(ticks):
        tick = clock.current_tick()
        eco.begin_tick(tick)
        eco.invoke_app_ticks(tick)
        job.step(tick, tick.duration_s)
        eco.settle(tick)
        job.finish_tick(tick, tick.duration_s, served_fraction)
        clock.advance()


def uniform_job(**kwargs) -> ParallelJob:
    defaults = dict(
        num_tasks=4,
        num_rounds=2,
        mean_task_work_units=120.0,
        work_cv=1e-6,
        straggler_probability=0.0,
        seed=1,
    )
    defaults.update(kwargs)
    return ParallelJob("parallel", **defaults)


class TestRounds:
    def test_round_advances_when_all_tasks_finish(self):
        job = uniform_job()
        eco, _ = bind(job)
        drive(eco, job, 3)  # ~120 units per task at 1 u/s
        assert job.current_round >= 1

    def test_completion(self):
        job = uniform_job()
        eco, _ = bind(job)
        drive(eco, job, 6)
        assert job.is_complete
        assert job.completion_time_s <= 360.0

    def test_work_done_accumulates(self):
        job = uniform_job()
        eco, _ = bind(job)
        drive(eco, job, 6)
        assert job.work_done_units == pytest.approx(job.total_useful_work_units, rel=1e-6)

    def test_barrier_idles_finished_tasks(self):
        job = uniform_job(work_cv=0.5, seed=3)
        eco, api = bind(job)
        clock = SimulationClock(60.0)
        drive(eco, job, 1, clock=clock)
        # Refresh demands for the next interval: finished tasks wait at
        # the barrier with zero demand.
        job.step(clock.current_tick(), 60.0)
        remaining = job.task_remaining()
        finished = [i for i in range(job.num_tasks) if remaining[i] <= 0]
        assert finished, "seed 3 should finish at least one task in a tick"
        container_id = job._task_containers[finished[0]]
        container = next(
            c for c in api.list_containers() if c.id == container_id
        )
        assert container.demand_utilization == 0.0


class TestStragglers:
    def test_straggler_slows_execution(self):
        fast = uniform_job(seed=9)
        slow = uniform_job(straggler_probability=1.0, straggler_factor=2.0, seed=9)
        eco_f, _ = bind(fast)
        eco_s, _ = bind(slow)
        drive(eco_f, fast, 4)
        drive(eco_s, slow, 4)
        assert slow.work_done_units < fast.work_done_units

    def test_detection_flags_lagging_tasks(self):
        job = uniform_job(
            num_tasks=10, straggler_probability=0.2, straggler_factor=4.0, seed=5
        )
        eco, _ = bind(job)
        drive(eco, job, 1)
        detected = set(job.straggler_tasks(threshold_factor=1.5))
        injected = set(job.injected_stragglers_this_round())
        # Everything detected must actually be slow.
        assert detected <= injected

    def test_ground_truth_accessor(self):
        job = uniform_job(straggler_probability=1.0)
        assert job.injected_stragglers_this_round() == list(range(job.num_tasks))


class TestReplicas:
    def test_replica_speeds_up_straggler(self):
        job = uniform_job(
            num_tasks=2, num_rounds=1, straggler_probability=1.0,
            straggler_factor=4.0,
        )
        eco, api = bind(job)
        replica = api.launch_container(1)
        job.add_replica(0, replica.id)
        drive(eco, job, 2)
        remaining = job.task_remaining()
        # Task 0 ran at full replica speed; task 1 crawled at 1/4 speed.
        assert remaining[0] < remaining[1]

    def test_clear_replicas_returns_ids(self):
        job = uniform_job()
        eco, api = bind(job)
        replica = api.launch_container(1)
        job.add_replica(0, replica.id)
        assert job.clear_replicas() == [replica.id]
        assert job.replica_count() == 0

    def test_bad_task_index_rejected(self):
        job = uniform_job()
        with pytest.raises(IndexError):
            job.add_replica(99, "x")


class TestServedFraction:
    def test_brownout_scales_progress(self):
        job = uniform_job()
        eco, _ = bind(job)
        drive(eco, job, 2, served_fraction=0.5)
        # Two half-served ticks = one full tick of progress per task.
        assert job.task_remaining()[0] == pytest.approx(60.0)


class TestValidation:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            ParallelJob(num_tasks=0)
        with pytest.raises(ValueError):
            ParallelJob(straggler_probability=1.5)
        with pytest.raises(ValueError):
            ParallelJob(straggler_factor=0.5)

    def test_deterministic_work_matrix(self):
        a = ParallelJob(seed=4)
        b = ParallelJob(seed=4)
        assert np.array_equal(a.task_remaining(), b.task_remaining())
