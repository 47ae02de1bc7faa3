"""Market-extension experiments: the carbon-vs-cost Pareto frontier.

The paper's evaluation optimizes carbon alone; with the market layer
attached, every schedule also has a dollar cost, and the two objectives
decouple whenever price and carbon do (a time-of-use on-peak window on a
clean evening grid, a cheap-but-dirty night).  The ``extension_market``
scenario sweeps price regimes x policies x the carbon/cost trade-off
knob λ and reports, per regime, the carbon-vs-cost Pareto frontier:

- **carbon-threshold** — the paper's Wait&Scale on carbon (cost-blind).
- **price-threshold**  — Wait&Scale on the price signal (carbon-blind).
- **carbon-cost**      — Wait&Scale on the blended index, λ from pure
  carbon (λ=0) to pure cost (λ=1).

Every run settles through the full billing path: per-tick settlements
carry ``cost_usd = grid energy x price``, and the returned metrics
include the absolute error between the ledger's cumulative cost and a
recomputation from the raw settlements (it must be ~0 by construction).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.core.units import energy_cost_usd, sequential_sum

# Frozen calibration for the market sweep (kept scenario-overridable).
MARKET_DAYS = 2
MARKET_WORK_UNITS = 24000.0
MARKET_PERCENTILE = 35.0
MARKET_BASE_WORKERS = 4
MARKET_SCALE_FACTOR = 2.0
# The job arrives on the evening net-load ramp (dirty AND expensive), so
# every policy must *choose* a window to run in: price-aware policies
# resume at the off-peak night, carbon-aware ones at the midday solar
# dip — that divergence is the Pareto spread the sweep measures.
MARKET_ARRIVAL_HOUR = 18.0


def run_market_case(
    regime: str,
    policy: str,
    lam: float,
    seed: int = 2023,
    days: int = MARKET_DAYS,
    work_units: float = MARKET_WORK_UNITS,
    percentile: float = MARKET_PERCENTILE,
) -> Dict[str, float]:
    """One (price regime, policy, λ) run; flat, picklable metrics.

    The scenario-registry unit of work: builds a grid-only plant with a
    CAISO carbon trace and the named price regime attached, runs an ML
    training job under the named policy, and returns energy/carbon/cost
    totals plus the billing-consistency error.
    """
    from repro.carbon.forecast import OracleForecaster
    from repro.carbon.traces import make_region_trace
    from repro.market.prices import make_price_trace
    from repro.policies import (
        CarbonCostPolicy,
        PriceThresholdPolicy,
        WaitAndScalePolicy,
        blended_threshold,
    )
    from repro.sim.experiment import (
        UNLIMITED_GRID_SHARE,
        carbon_threshold,
        grid_environment,
    )
    from repro.workloads.mltrain import MLTrainingJob

    days = int(days)
    arrival_offset_s = MARKET_ARRIVAL_HOUR * 3600.0
    trace = make_region_trace("caiso", days=days, seed=int(seed)).rolled(
        arrival_offset_s
    )
    price_trace = make_price_trace(str(regime), days=days, seed=int(seed)).rolled(
        arrival_offset_s
    )
    env = grid_environment(trace=trace, price_trace=price_trace)
    window_s = trace.duration_s

    if policy == "carbon-threshold":
        chosen = WaitAndScalePolicy(
            carbon_threshold(trace, percentile, window_s),
            MARKET_BASE_WORKERS,
            MARKET_SCALE_FACTOR,
        )
    elif policy == "price-threshold":
        chosen = PriceThresholdPolicy(
            OracleForecaster(env.price_signal),
            percentile,
            window_s,
            MARKET_BASE_WORKERS,
            MARKET_SCALE_FACTOR,
        )
    elif policy == "carbon-cost":
        chosen = CarbonCostPolicy(
            float(lam),
            blended_threshold(trace, price_trace, float(lam), percentile),
            carbon_scale=trace.mean(),
            price_scale=price_trace.mean(),
            base_workers=MARKET_BASE_WORKERS,
            scale_factor=MARKET_SCALE_FACTOR,
        )
    else:
        raise ValueError(f"unknown market policy: {policy!r}")

    job = MLTrainingJob(total_work_units=float(work_units))
    env.engine.add_application(job, UNLIMITED_GRID_SHARE, chosen)
    max_ticks = days * 24 * 60
    env.engine.run(max_ticks, stop_when_batch_complete=True)

    account = env.ecovisor.ledger.account(job.name)
    recomputed = sequential_sum(
        energy_cost_usd(s.grid_total_wh, s.price_usd_per_kwh)
        for s in account.settlements
    )
    runtime = job.completion_time_s
    return {
        "runtime_s": float(runtime) if runtime is not None else max_ticks * 60.0,
        "completed": 1.0 if job.is_complete else 0.0,
        "energy_wh": float(account.energy_wh),
        "grid_wh": float(account.grid_wh),
        "carbon_g": float(account.carbon_g),
        "cost_usd": float(account.cost_usd),
        "mean_price_usd_per_kwh": float(price_trace.mean()),
        "cost_recompute_abs_err": float(abs(account.cost_usd - recomputed)),
    }


def _point_label(row: Dict[str, Any]) -> str:
    """Display label for one sweep row (λ only matters for carbon-cost)."""
    policy = str(row["policy"])
    if policy == "carbon-cost":
        return f"carbon-cost(lam={float(row['lam']):.2f})"
    return policy


def market_pareto_rows(table: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Reduce a tidy ``extension_market`` sweep table to Pareto rows.

    One row per unique (regime, policy point): carbon, cost, runtime,
    and a ``pareto`` flag — 1.0 when no other point in the same regime
    weakly dominates it on (carbon_g, cost_usd).  Rows whose λ is
    irrelevant (the threshold policies ignore it) collapse to a single
    point.  Output order: regime, then ascending carbon.
    """
    points: Dict[tuple, Dict[str, Any]] = {}
    for row in table:
        if row.get("status", "ok") != "ok":
            continue
        key = (str(row["regime"]), _point_label(row))
        points.setdefault(key, row)

    rows: List[Dict[str, Any]] = []
    for (regime, label), row in points.items():
        dominated = any(
            other_key[0] == regime
            and (other_key != (regime, label))
            and other["carbon_g"] <= row["carbon_g"]
            and other["cost_usd"] <= row["cost_usd"]
            and (
                other["carbon_g"] < row["carbon_g"]
                or other["cost_usd"] < row["cost_usd"]
            )
            for other_key, other in points.items()
        )
        rows.append(
            {
                "regime": regime,
                "policy_point": label,
                "carbon_g": float(row["carbon_g"]),
                "cost_usd": float(row["cost_usd"]),
                "runtime_s": float(row["runtime_s"]),
                "completed": float(row["completed"]),
                "pareto": 0.0 if dominated else 1.0,
            }
        )
    rows.sort(key=lambda r: (r["regime"], r["carbon_g"], r["policy_point"]))
    return rows
