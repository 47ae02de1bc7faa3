"""BLAST workload: linear scaling, queue bottleneck, coordinator."""

import pytest

from repro.core.api import connect
from repro.core.clock import SimulationClock
from repro.core.config import ShareConfig
from repro.workloads.blast import BlastJob
from tests.conftest import make_ecovisor


def bind(job, workers=0):
    eco = make_ecovisor(solar_w=0.0, num_servers=10)
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


class TestScaling:
    def test_linear_below_queue_cap(self):
        job = BlastJob()
        assert job.throughput_units_per_s([1.0] * 8) == pytest.approx(8.0)
        assert job.throughput_units_per_s([1.0] * 16) == pytest.approx(16.0)
        assert job.throughput_units_per_s([1.0] * 24) == pytest.approx(24.0)

    def test_flat_beyond_queue_cap(self):
        job = BlastJob()
        assert job.throughput_units_per_s([1.0] * 32) == pytest.approx(24.0)

    def test_utilization_counts_fractionally(self):
        job = BlastJob()
        assert job.throughput_units_per_s([0.5] * 8) == pytest.approx(4.0)

    def test_ideal_runtime(self):
        job = BlastJob(total_work_units=240.0)
        assert job.ideal_runtime_s(8) == pytest.approx(30.0)
        # 4x workers gains nothing over 3x.
        assert job.ideal_runtime_s(32) == job.ideal_runtime_s(24)


class TestCoordinator:
    def test_coordinator_launched_on_bind(self):
        job = BlastJob()
        _, api = bind(job)
        roles = [c.role for c in api.list_containers()]
        assert roles == ["coordinator"]
        assert job.coordinator_id is not None

    def test_coordinator_survives_worker_scaling(self):
        job = BlastJob()
        eco, api = bind(job, workers=8)
        api.scale_to(0, cores=1)
        roles = [c.role for c in api.list_containers()]
        assert roles == ["coordinator"]

    def test_coordinator_draws_power_while_suspended(self):
        job = BlastJob()
        eco, api = bind(job, workers=0)
        drive(eco, job, 2)
        assert eco.ledger.app_energy_wh(job.name) > 0.0

    def test_coordinator_utilization_tracks_workers(self):
        job = BlastJob()
        eco, api = bind(job, workers=24)
        drive(eco, job, 1)
        coordinator = next(
            c for c in api.list_containers() if c.role == "coordinator"
        )
        assert coordinator.demand_utilization == pytest.approx(1.0)

    def test_coordinator_stopped_on_completion(self):
        job = BlastJob(total_work_units=480.0)
        eco, api = bind(job, workers=8)
        drive(eco, job, 2)
        assert job.is_complete
        # The job reaps its own coordinator; workers are the policy's to
        # reap.
        roles = {c.role for c in api.list_containers()}
        assert "coordinator" not in roles
        assert job.coordinator_id is None

    def test_coordinator_disabled_with_zero_cores(self):
        job = BlastJob(coordinator_cores=0.0)
        _, api = bind(job)
        assert api.list_containers() == []


class TestEndToEnd:
    def test_completes_and_counts_energy(self):
        job = BlastJob(total_work_units=960.0)
        eco, _ = bind(job, workers=8)
        drive(eco, job, 5)
        assert job.is_complete
        assert job.completion_time_s == pytest.approx(120.0)
        assert eco.ledger.app_carbon_g(job.name) > 0.0


class TestValidation:
    def test_rejects_bad_queue_capacity(self):
        with pytest.raises(ValueError):
            BlastJob(queue_capacity_workers=0.0)

    def test_rejects_negative_coordinator_cores(self):
        with pytest.raises(ValueError):
            BlastJob(coordinator_cores=-1.0)

    def test_rejects_bad_coordinator_utilization(self):
        with pytest.raises(ValueError):
            BlastJob(coordinator_base_utilization=2.0)
