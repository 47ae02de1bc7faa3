"""Stock policies move real energy and cost end to end.

One small scenario per stock policy whose run must produce a nonzero
flow in the ledger: the market policy is billed, the battery policy
charges and discharges, and the solar-cap policy runs on solar.  Each
guards a scenario wiring (market attachment, battery share, solar
share) against silently degrading to an all-grid or zero-cost run.
"""

from repro.carbon.forecast import OracleForecaster
from repro.carbon.traces import make_region_trace
from repro.core.config import ShareConfig
from repro.market.prices import make_price_trace
from repro.policies.battery import DynamicSparkBatteryPolicy
from repro.policies.price_threshold import PriceThresholdPolicy
from repro.policies.solar_matching import StaticSolarCapPolicy
from repro.sim.experiment import (
    UNLIMITED_GRID_SHARE,
    grid_environment,
    solar_battery_environment,
)
from repro.workloads.base import BatchJob
from repro.workloads.parallel import ParallelJob
from repro.workloads.spark import SparkJob


class _UnitJob(BatchJob):
    """Unit-throughput batch job."""

    def throughput_units_per_s(self, effective_utilizations):
        return sum(effective_utilizations)


def _run_price():
    trace = make_region_trace("caiso", days=2, seed=11)
    price = make_price_trace("realtime", days=2, seed=11)
    env = grid_environment(trace=trace, price_trace=price)
    app = _UnitJob("job", total_work_units=120000.0)
    policy = PriceThresholdPolicy(
        OracleForecaster(env.price_signal),
        percentile=40.0,
        window_s=24 * 3600.0,
        base_workers=2,
        scale_factor=2.0,
    )
    env.engine.add_application(app, UNLIMITED_GRID_SHARE, policy)
    env.engine.run(900, stop_when_batch_complete=True)
    return env.ecovisor.ledger.account(app.name)


def _run_spark_battery():
    env = solar_battery_environment(
        solar_peak_w=60.0, battery_capacity_wh=120.0, days=2, seed=5
    )
    app = SparkJob("spark", total_work_units=250000.0)
    policy = DynamicSparkBatteryPolicy(
        base_workers=2, worker_power_w=4.0, max_workers=8
    )
    env.engine.add_application(
        app,
        ShareConfig(solar_fraction=1.0, battery_fraction=1.0),
        policy,
    )
    env.engine.run(1200, stop_when_batch_complete=True)
    return env.ecovisor.ledger.account(app.name)


def _run_solar_cap():
    env = solar_battery_environment(
        solar_peak_w=40.0, battery_capacity_wh=50.0, days=1, seed=9
    )
    app = ParallelJob("par", num_tasks=4, num_rounds=6, seed=13)
    env.engine.add_application(
        app, ShareConfig(solar_fraction=1.0), StaticSolarCapPolicy()
    )
    env.engine.run(600, stop_when_batch_complete=True)
    return env.ecovisor.ledger.account(app.name)


class TestStockPolicyFlows:
    def test_market_run_bills_cost(self):
        assert _run_price().cost_usd > 0.0

    def test_battery_run_moves_battery_energy(self):
        assert _run_spark_battery().battery_wh > 0.0

    def test_solar_cap_run_moves_solar_energy(self):
        assert _run_solar_cap().solar_wh > 0.0
