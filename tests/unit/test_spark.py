"""Spark workload: checkpointing and volatile-work loss."""

import pytest

from repro.core.api import connect
from repro.core.clock import SimulationClock
from repro.core.config import ShareConfig
from repro.workloads.spark import SparkJob
from tests.conftest import make_ecovisor


def bind(job, workers=0):
    eco = make_ecovisor(solar_w=0.0)
    eco.admit_app(job.name, ShareConfig())
    api = connect(eco, job.name)
    job.bind(api)
    if workers:
        api.scale_to(workers, cores=1)
    return eco, api


def drive(eco, job, ticks, clock=None):
    clock = clock or SimulationClock(60.0)
    for _ in range(ticks):
        tick = clock.current_tick()
        eco.begin_tick(tick)
        eco.invoke_app_ticks(tick)
        job.step(tick, tick.duration_s)
        eco.settle(tick)
        job.finish_tick(tick, tick.duration_s, 1.0)
        clock.advance()


class TestCheckpointing:
    def test_manual_checkpoint_commits_volatile(self):
        job = SparkJob(total_work_units=10000.0, warmup_ticks_on_resume=0)
        eco, _ = bind(job, workers=2)
        drive(eco, job, 3)
        assert job.volatile_units > 0
        committed = job.checkpoint(180.0)
        assert committed > 0
        assert job.volatile_units == 0.0
        assert job.checkpointed_units == job.progress_units

    def test_auto_checkpoint_on_interval(self):
        job = SparkJob(
            total_work_units=1e6,
            checkpoint_interval_s=120.0,
            warmup_ticks_on_resume=0,
        )
        eco, _ = bind(job, workers=2)
        drive(eco, job, 5)
        assert job.checkpoint_count >= 2
        assert job.volatile_units < 2 * 2 * 60.0  # at most one interval's work

    def test_no_checkpoint_while_suspended(self):
        job = SparkJob(total_work_units=1e6, checkpoint_interval_s=60.0)
        eco, _ = bind(job, workers=0)
        drive(eco, job, 5)
        assert job.checkpoint_count == 0


class TestKillWorkers:
    def test_kill_all_loses_all_volatile(self):
        job = SparkJob(total_work_units=1e6, warmup_ticks_on_resume=0,
                       checkpoint_interval_s=1e9)
        eco, _ = bind(job, workers=2)
        drive(eco, job, 3)
        before = job.progress_units
        volatile = job.volatile_units
        lost = job.kill_workers(2, 2, 180.0)
        assert lost == pytest.approx(volatile)
        assert job.progress_units == pytest.approx(before - volatile)
        assert job.lost_units_total == pytest.approx(lost)

    def test_partial_kill_loses_proportional_share(self):
        job = SparkJob(total_work_units=1e6, warmup_ticks_on_resume=0,
                       checkpoint_interval_s=1e9)
        eco, _ = bind(job, workers=4)
        drive(eco, job, 2)
        volatile = job.volatile_units
        lost = job.kill_workers(1, 4, 120.0)
        assert lost == pytest.approx(volatile / 4)

    def test_checkpointed_work_survives_kill(self):
        job = SparkJob(total_work_units=1e6, warmup_ticks_on_resume=0,
                       checkpoint_interval_s=1e9)
        eco, _ = bind(job, workers=2)
        drive(eco, job, 3)
        job.checkpoint(180.0)
        checkpointed = job.checkpointed_units
        job.kill_workers(2, 2, 180.0)
        assert job.progress_units == pytest.approx(checkpointed)

    def test_kill_zero_is_noop(self):
        job = SparkJob(total_work_units=1e6)
        eco, _ = bind(job, workers=1)
        drive(eco, job, 2)
        assert job.kill_workers(0, 1, 60.0) == 0.0

    def test_suspend_with_checkpoint_is_lossless(self):
        job = SparkJob(total_work_units=1e6, warmup_ticks_on_resume=0,
                       checkpoint_interval_s=1e9)
        eco, _ = bind(job, workers=2)
        drive(eco, job, 3)
        before = job.progress_units
        job.suspend_with_checkpoint(180.0)
        job.kill_workers(2, 2, 180.0)
        assert job.progress_units == pytest.approx(before)


class TestThroughput:
    def test_near_linear_scaling(self):
        job = SparkJob()
        t4 = job.throughput_units_per_s([1.0] * 4)
        t8 = job.throughput_units_per_s([1.0] * 8)
        assert t8 / t4 > 1.8  # small coordination overhead only

    def test_validation(self):
        with pytest.raises(ValueError):
            SparkJob(checkpoint_interval_s=0.0)
        with pytest.raises(ValueError):
            SparkJob(worker_rate_units_per_s=0.0)
