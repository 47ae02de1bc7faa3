"""Cost-aware policies: price threshold and blended carbon+cost."""

import pytest

from repro.carbon.forecast import OracleForecaster
from repro.carbon.service import CarbonIntensityService
from repro.carbon.traces import CarbonTrace, make_region_trace
from repro.cluster.container import reset_container_id_counter
from repro.core.clock import SimulationClock
from repro.core.config import CarbonServiceConfig, ShareConfig
from repro.core.upcalls import _policy_route
from repro.market.prices import PriceTrace, constant_price_trace, make_price_trace
from repro.market.service import PriceSignal
from repro.policies import (
    CarbonCostPolicy,
    ForecastWaitAndScalePolicy,
    PriceThresholdPolicy,
    blended_index,
    blended_threshold,
)
from repro.sim.engine import SimulationEngine
from repro.workloads.mltrain import MLTrainingJob
from tests.conftest import make_ecovisor


def market_ecovisor(price_samples, carbon_samples=None):
    """Grid-only ecovisor with explicit price (and optional carbon) traces."""
    eco = make_ecovisor(
        solar_w=0.0, num_servers=10, price_trace=PriceTrace(price_samples)
    )
    if carbon_samples is not None:
        eco._carbon_service = CarbonIntensityService(
            CarbonServiceConfig(region="alt"),
            trace=CarbonTrace(carbon_samples),
        )
    return eco


def run(eco, app, policy, ticks):
    engine = SimulationEngine(eco, SimulationClock(60.0))
    engine.add_application(app, ShareConfig(), policy)
    engine.run(ticks)
    return engine


class TestPriceThresholdPolicy:
    def _policy(self, eco, percentile=50.0, window_s=None):
        signal = eco.price_signal
        return PriceThresholdPolicy(
            OracleForecaster(signal),
            percentile,
            window_s or signal.trace.duration_s,
            base_workers=2,
            scale_factor=2.0,
        )

    def test_flips_with_price(self):
        eco = market_ecovisor([0.10, 0.50] * 100)
        job = MLTrainingJob(total_work_units=1e6, warmup_ticks_on_resume=0)
        # A 10-sample window balances the alternating levels exactly, so
        # the 50th-percentile threshold lands midway at 0.30.
        policy = self._policy(eco, window_s=3000.0)
        engine = SimulationEngine(eco, SimulationClock(60.0))
        engine.add_application(job, ShareConfig(), policy)
        counts = []
        for _ in range(10):
            engine.run(1)
            counts.append(policy.current_worker_count())
        # Ticks 0-4 (price 0.10): running scaled; ticks 5-9 (0.50): suspended.
        assert counts[:5] == [4] * 5
        assert counts[5:] == [0] * 5
        assert policy.current_threshold == pytest.approx(0.30)

    def test_scales_down_after_completion(self):
        eco = market_ecovisor([0.10] * 100)
        job = MLTrainingJob(total_work_units=50.0, warmup_ticks_on_resume=0)
        policy = self._policy(eco)
        run(eco, job, policy, 6)
        assert job.is_complete
        assert policy.current_worker_count() == 0

    def test_validates_arguments(self):
        signal = PriceSignal(trace=constant_price_trace(0.2))
        forecaster = OracleForecaster(signal)
        with pytest.raises(ValueError):
            PriceThresholdPolicy(forecaster, 0.0, 3600.0, 2, 2.0)
        with pytest.raises(ValueError):
            PriceThresholdPolicy(forecaster, 50.0, -1.0, 2, 2.0)
        with pytest.raises(ValueError):
            PriceThresholdPolicy(forecaster, 50.0, 3600.0, 0, 2.0)
        with pytest.raises(ValueError):
            PriceThresholdPolicy(forecaster, 50.0, 3600.0, 2, 0.5)


class TestForecastThresholdBatchParity:
    """The carbon and price forms of the forecast-threshold policy give
    the same run through the batch kernel as through per-app upcalls."""

    TENANTS, TICKS = 6, 400

    def _run(self, cls, batched):
        reset_container_id_counter()
        eco = make_ecovisor(
            solar_w=0.0,
            num_servers=10,
            price_trace=make_price_trace("realtime", days=1, seed=7),
        )
        eco._carbon_service = CarbonIntensityService(
            CarbonServiceConfig(region="caiso"),
            trace=make_region_trace("caiso", days=1, seed=7),
        )
        signal = (
            eco.carbon_service
            if cls is ForecastWaitAndScalePolicy
            else eco.price_signal
        )
        engine = SimulationEngine(eco, SimulationClock(60.0), batched=batched)
        jobs, policies = [], []
        for i in range(self.TENANTS):
            job = MLTrainingJob(
                name=f"job-{i}", total_work_units=1e6, warmup_ticks_on_resume=1
            )
            policy = cls(
                OracleForecaster(signal),
                percentile=20.0 + 12.0 * i,
                window_s=3600.0 * (2 + i),
                base_workers=1 + i % 3,
                scale_factor=2.0,
            )
            engine.add_application(job, ShareConfig(), policy)
            jobs.append(job)
            policies.append(policy)
        engine.run(self.TICKS)
        routes = [_policy_route(app)[1] for app in eco._apps.values()]
        ledger = eco.ledger
        outcome = {
            "progress": [j.progress_units for j in jobs],
            "suspended": [j.suspended_ticks for j in jobs],
            "running": [j.running_ticks for j in jobs],
            "thresholds": [p.current_threshold for p in policies],
            "ledger": [
                (a.energy_wh, a.carbon_g, a.cost_usd)
                for a in (ledger.account(j.name) for j in jobs)
            ],
            "totals": (
                ledger.total_energy_wh(),
                ledger.total_carbon_g(),
                ledger.total_cost_usd(),
            ),
        }
        return outcome, routes

    @pytest.mark.parametrize(
        "cls", [ForecastWaitAndScalePolicy, PriceThresholdPolicy]
    )
    def test_batched_run_equals_per_app_run(self, cls):
        batched, routes = self._run(cls, batched=True)
        reference, _ = self._run(cls, batched=False)
        assert routes == ["opted_in"] * self.TENANTS
        assert batched == reference
        # The signal crossed every tenant's threshold both ways.
        assert all(n > 0 for n in reference["suspended"])
        assert all(n > 0 for n in reference["running"])


class TestBlendedIndex:
    def test_endpoints(self):
        assert blended_index(200.0, 0.4, 0.0, 100.0, 0.2) == pytest.approx(2.0)
        assert blended_index(200.0, 0.4, 1.0, 100.0, 0.2) == pytest.approx(2.0)
        assert blended_index(200.0, 0.1, 1.0, 100.0, 0.2) == pytest.approx(0.5)

    def test_zero_scales_contribute_nothing(self):
        assert blended_index(200.0, 0.4, 0.5, 0.0, 0.0) == 0.0

    def test_blended_threshold_reduces_to_single_signal(self):
        carbon = CarbonTrace([100.0, 300.0] * 10)
        price = PriceTrace([0.10, 0.50] * 10)
        # lam=0: percentile of carbon / mean(carbon).
        t0 = blended_threshold(carbon, price, 0.0, 50.0)
        assert t0 == pytest.approx(float(200.0 / 200.0), abs=0.51)
        # lam=1: percentile of price / mean(price).
        t1 = blended_threshold(carbon, price, 1.0, 100.0)
        assert t1 == pytest.approx(0.50 / 0.30, rel=1e-6)

    def test_explicit_scales_respected(self):
        carbon = CarbonTrace([100.0] * 4)
        price = PriceTrace([0.2] * 4)
        t = blended_threshold(
            carbon, price, 0.5, 50.0, carbon_scale=200.0, price_scale=0.4
        )
        assert t == pytest.approx(0.5 * 0.5 + 0.5 * 0.5)


class TestCarbonCostPolicy:
    def test_lambda_zero_tracks_carbon_only(self):
        # Carbon flips, price is flat: with lam=0 the policy must follow
        # carbon and ignore price entirely.
        eco = market_ecovisor([0.30] * 200, carbon_samples=[100.0, 300.0] * 100)
        job = MLTrainingJob(total_work_units=1e6, warmup_ticks_on_resume=0)
        policy = CarbonCostPolicy(
            0.0, threshold=1.0, carbon_scale=200.0, price_scale=0.30,
            base_workers=2, scale_factor=2.0,
        )
        engine = SimulationEngine(eco, SimulationClock(60.0))
        engine.add_application(job, ShareConfig(), policy)
        counts = []
        for _ in range(10):
            engine.run(1)
            counts.append(policy.current_worker_count())
        assert counts[:5] == [4] * 5   # carbon 100 -> index 0.5 <= 1.0
        assert counts[5:] == [0] * 5   # carbon 300 -> index 1.5 > 1.0

    def test_lambda_one_tracks_price_only(self):
        eco = market_ecovisor([0.10, 0.50] * 100, carbon_samples=[200.0] * 200)
        job = MLTrainingJob(total_work_units=1e6, warmup_ticks_on_resume=0)
        policy = CarbonCostPolicy(
            1.0, threshold=1.0, carbon_scale=200.0, price_scale=0.30,
            base_workers=2, scale_factor=2.0,
        )
        engine = SimulationEngine(eco, SimulationClock(60.0))
        engine.add_application(job, ShareConfig(), policy)
        counts = []
        for _ in range(10):
            engine.run(1)
            counts.append(policy.current_worker_count())
        assert counts[:5] == [4] * 5   # price 0.10 -> index 1/3 <= 1.0
        assert counts[5:] == [0] * 5   # price 0.50 -> index 5/3 > 1.0

    def test_validates_arguments(self):
        kwargs = dict(
            threshold=1.0, carbon_scale=1.0, price_scale=1.0,
            base_workers=2, scale_factor=2.0,
        )
        with pytest.raises(ValueError):
            CarbonCostPolicy(-0.1, **kwargs)
        with pytest.raises(ValueError):
            CarbonCostPolicy(1.1, **kwargs)
        with pytest.raises(ValueError):
            CarbonCostPolicy(0.5, threshold=-1.0, carbon_scale=1.0,
                             price_scale=1.0, base_workers=2, scale_factor=2.0)
        with pytest.raises(ValueError):
            CarbonCostPolicy(0.5, threshold=1.0, carbon_scale=1.0,
                             price_scale=1.0, base_workers=0, scale_factor=2.0)
