"""The extension_market scenario: billing consistency and Pareto shape."""

import pytest

from repro.analysis.figures_market import market_pareto_rows, run_market_case
from repro.sim import scenarios
from repro.sim.runner import run_sweep

# A miniature but structurally complete matrix: all three regimes, all
# three policies, both lambda endpoints, one simulated day.
SMALL = {"days": 1, "work_units": 6000.0, "lam": [0.0, 1.0]}


@pytest.fixture(scope="module")
def small_sweep():
    sweep = run_sweep("extension_market", overrides=SMALL, jobs=1)
    assert sweep.ok, [r.error for r in sweep.failures()]
    return sweep


class TestCatalogRegistration:
    def test_new_scenarios_registered(self):
        names = scenarios.names()
        for name in ("extension_market", "fig05_multitenancy", "fig11_stragglers"):
            assert name in names

    def test_default_matrix_size(self):
        # 3 regimes x 3 policies x 3 lambdas.
        assert scenarios.matrix_size("extension_market") == 27
        # 11 solar percentages x 2 replica policies.
        assert scenarios.matrix_size("fig11_stragglers") == 22
        assert scenarios.matrix_size("fig05_multitenancy") == 1


class TestMarketSweep:
    def test_all_runs_complete_and_bill_consistently(self, small_sweep):
        for row in small_sweep.rows_ok():
            assert row["completed"] == 1.0, row
            assert row["cost_recompute_abs_err"] == 0.0, row
            assert row["cost_usd"] >= 0.0

    def test_parallel_is_byte_identical(self, small_sweep):
        parallel = run_sweep("extension_market", overrides=SMALL, jobs=2)
        assert parallel.ok
        assert parallel.metrics_json() == small_sweep.metrics_json()

    def test_pareto_rows_shape(self, small_sweep):
        rows = market_pareto_rows(small_sweep.rows_ok())
        regimes = {r["regime"] for r in rows}
        assert regimes == {"flat", "tou", "realtime"}
        for regime in regimes:
            points = [r for r in rows if r["regime"] == regime]
            # carbon-threshold, price-threshold, and the two lambda
            # endpoints (the threshold policies collapse their lambda
            # duplicates into one point each).
            labels = {p["policy_point"] for p in points}
            assert "carbon-threshold" in labels
            assert "price-threshold" in labels
            assert "carbon-cost(lam=0.00)" in labels
            assert "carbon-cost(lam=1.00)" in labels
            assert any(p["pareto"] == 1.0 for p in points)

    def test_lambda_endpoints_match_single_signal_policies(self, small_sweep):
        rows = {
            (r["regime"], r["policy_point"]): r
            for r in market_pareto_rows(small_sweep.rows_ok())
        }
        for regime in ("flat", "tou", "realtime"):
            assert rows[(regime, "carbon-cost(lam=0.00)")]["carbon_g"] == (
                rows[(regime, "carbon-threshold")]["carbon_g"]
            )
            assert rows[(regime, "carbon-cost(lam=1.00)")]["cost_usd"] == (
                rows[(regime, "price-threshold")]["cost_usd"]
            )


class TestRunMarketCase:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            run_market_case("flat", "mystery", 0.0, days=1)

    def test_unknown_regime_rejected(self):
        from repro.core.errors import TraceError

        with pytest.raises(TraceError):
            run_market_case("bespoke", "carbon-threshold", 0.0, days=1)
