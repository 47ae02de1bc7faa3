"""Application and BatchJob base behaviour."""

import pytest

from repro.core.api import connect
from repro.core.clock import SimulationClock
from repro.core.config import ShareConfig
from repro.workloads.base import Application, BatchJob
from tests.conftest import make_ecovisor


class FixedRateJob(BatchJob):
    """One work unit per worker-second, no overheads."""

    def throughput_units_per_s(self, utils):
        return float(sum(utils))


def bind(app, workers=0):
    eco = make_ecovisor(solar_w=0.0)
    eco.admit_app(app.name, ShareConfig())
    api = connect(eco, app.name)
    app.bind(api)
    if workers:
        api.scale_to(workers, cores=1)
    return eco, api


def drive(eco, app, ticks, served_fraction=1.0, clock=None):
    clock = clock or SimulationClock(60.0)
    for _ in range(ticks):
        tick = clock.current_tick()
        eco.begin_tick(tick)
        eco.invoke_app_ticks(tick)
        app.step(tick, tick.duration_s)
        eco.settle(tick)
        app.finish_tick(tick, tick.duration_s, served_fraction)
        clock.advance()
    return clock


class TestBinding:
    def test_unbound_api_access_raises(self):
        job = FixedRateJob("j", 100.0)
        with pytest.raises(RuntimeError):
            job.api

    def test_bind_sets_api(self):
        job = FixedRateJob("j", 100.0)
        bind(job)
        assert job.is_bound


class TestProgress:
    def test_progress_accumulates(self):
        job = FixedRateJob("j", 240.0)
        eco, _ = bind(job, workers=2)
        drive(eco, job, 1)
        # 2 workers x 60 s = 120 units.
        assert job.progress_units == pytest.approx(120.0)
        assert not job.is_complete

    def test_completion_and_timestamp(self):
        job = FixedRateJob("j", 240.0)
        eco, _ = bind(job, workers=2)
        drive(eco, job, 3)
        assert job.is_complete
        assert job.completion_time_s == pytest.approx(120.0)
        assert job.progress_fraction == 1.0

    def test_progress_clamped_at_total(self):
        job = FixedRateJob("j", 100.0)
        eco, _ = bind(job, workers=4)
        drive(eco, job, 5)
        assert job.progress_units == pytest.approx(100.0)

    def test_served_fraction_scales_progress(self):
        job = FixedRateJob("j", 1000.0)
        eco, _ = bind(job, workers=2)
        drive(eco, job, 1, served_fraction=0.5)
        assert job.progress_units == pytest.approx(60.0)

    def test_no_workers_counts_suspended(self):
        job = FixedRateJob("j", 100.0)
        eco, _ = bind(job, workers=0)
        drive(eco, job, 3)
        assert job.suspended_ticks == 3
        assert job.running_ticks == 0

    def test_complete_job_idles_containers(self):
        job = FixedRateJob("j", 60.0)
        eco, api = bind(job, workers=1)
        drive(eco, job, 2)
        assert job.is_complete
        container = api.list_containers()[0]
        assert container.demand_utilization == 0.0


class TestWarmup:
    def test_warmup_delays_progress(self):
        job = FixedRateJob("j", 1000.0, warmup_ticks_on_resume=2)
        eco, _ = bind(job, workers=1)
        drive(eco, job, 3)
        # Two warmup ticks produce nothing; the third produces 60.
        assert job.progress_units == pytest.approx(60.0)

    def test_warmup_reapplied_after_suspension(self):
        job = FixedRateJob("j", 1000.0, warmup_ticks_on_resume=1)
        eco, api = bind(job, workers=1)
        clock = drive(eco, job, 2)  # 1 warmup + 1 productive = 60 units
        api.scale_to(0, cores=1)
        drive(eco, job, 1, clock=clock)  # suspended
        api.scale_to(1, cores=1)
        drive(eco, job, 2, clock=clock)  # warmup again, then 60 more
        assert job.progress_units == pytest.approx(120.0)


class TestValidation:
    def test_rejects_nonpositive_work(self):
        with pytest.raises(ValueError):
            FixedRateJob("j", 0.0)

    def test_rejects_negative_warmup(self):
        with pytest.raises(ValueError):
            FixedRateJob("j", 1.0, warmup_ticks_on_resume=-1)

    def test_summary_fields(self):
        job = FixedRateJob("j", 60.0)
        eco, _ = bind(job, workers=1)
        drive(eco, job, 1)
        summary = job.summary()
        assert summary["progress_fraction"] == 1.0
        assert summary["running_ticks"] == 1.0


class TestWorkerRoleFiltering:
    def test_non_worker_containers_excluded_from_throughput(self):
        job = FixedRateJob("j", 1000.0)
        eco, api = bind(job, workers=1)
        api.launch_container(1, role="aux")
        drive(eco, job, 1)
        # Only the worker contributes.
        assert job.progress_units == pytest.approx(60.0)

    def test_services_never_complete(self):
        class Service(Application):
            def step(self, tick, duration_s):
                pass

            def finish_tick(self, tick, duration_s, served_fraction):
                pass

        service = Service("s")
        assert not service.is_complete
