"""Experiments for Figures 6 and 7 (carbon budgeting for web services).

Two multi-tenant web applications serve diurnal workloads for 48 hours
while grid carbon-intensity varies (paper Section 5.2).  Each runs under:

- the **static rate-limit** system policy: provision whatever worker pool
  the target carbon rate funds at the current intensity; and
- the **dynamic budget** application policy: size the pool to the latency
  SLO and spend banked carbon credits to ride out simultaneous
  high-carbon/high-load periods.

The paper's target rate is 20 mg/s at datacenter scale; the prototype
cluster here draws single-digit watts, so the calibrated equivalent is
0.30 mg/s — chosen, like the paper's, to bind during evening carbon
peaks (the rate funds fewer workers than the SLO needs) while leaving
slack at night.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.carbon.traces import make_region_trace
from repro.core.config import ShareConfig
from repro.policies import CarbonRateLimitPolicy, DynamicCarbonBudgetPolicy
from repro.policies.base import worker_power_w
from repro.sim.experiment import DEFAULT_CLUSTER, grid_environment
from repro.workloads.traces import diurnal_request_trace
from repro.workloads.webapp import WebApplication

TARGET_RATE_MG_PER_S = 0.30
SERVICE_RATE_RPS = 100.0
SLO_MS = (60.0, 70.0)
TRACE_HOURS = 48.0
MAX_WORKERS = 10


def _web_apps(seed: int) -> Tuple[WebApplication, WebApplication]:
    """The two web applications with misaligned workload phases."""
    trace1 = diurnal_request_trace(
        hours=TRACE_HOURS, base_rps=40, peak_rps=220, peak_hour=20.0, seed=seed
    )
    trace2 = diurnal_request_trace(
        hours=TRACE_HOURS, base_rps=30, peak_rps=170, peak_hour=18.0, seed=seed + 1
    )
    app1 = WebApplication(
        "webapp1", trace1, slo_ms=SLO_MS[0], service_rate_rps=SERVICE_RATE_RPS
    )
    app2 = WebApplication(
        "webapp2", trace2, slo_ms=SLO_MS[1], service_rate_rps=SERVICE_RATE_RPS
    )
    return app1, app2


def run_web_budgeting_case(policy: str, seed: int = 2023) -> Dict[str, float]:
    """Figures 6 and 7: both web apps for 48 h under one policy.

    ``policy`` is ``static`` (the rate-limit system policy) or
    ``dynamic`` (the carbon budget).  Per app: SLO violations, p95
    latency, carbon, and the carbon-rate and worker series' mean and
    peak; plus how the first app's workers correlate with grid carbon
    (Figure 7b's inverse tracking).
    """
    import numpy as np

    if policy not in ("static", "dynamic"):
        raise ValueError(f"unknown web policy: {policy!r}")
    env = grid_environment(trace=make_region_trace("caiso", days=2, seed=seed))
    apps = _web_apps(seed)
    per_worker_w = worker_power_w(DEFAULT_CLUSTER, cores=1.0)
    policy_class = CarbonRateLimitPolicy if policy == "static" else DynamicCarbonBudgetPolicy
    for app in apps:
        env.engine.add_application(
            app,
            ShareConfig(grid_power_w=float("inf")),
            policy_class(TARGET_RATE_MG_PER_S, per_worker_w, max_workers=MAX_WORKERS),
        )
    env.engine.run(int(TRACE_HOURS * 60))

    db = env.ecovisor.database
    metrics: Dict[str, float] = {"target_rate_mg_per_s": TARGET_RATE_MG_PER_S}
    for app in apps:
        rates = np.asarray(list(db.series(f"app.{app.name}.carbon_rate_mg_s").values()))
        workers = np.asarray(list(db.series(f"app.{app.name}.containers").values()))
        metrics.update(
            {
                f"{app.name}_violation_fraction": app.violation_fraction,
                f"{app.name}_mean_p95_ms": float(app.mean_latency_ms),
                f"{app.name}_worst_p95_ms": float(app.worst_latency_ms),
                f"{app.name}_carbon_g": float(env.ecovisor.ledger.account(app.name).carbon_g),
                f"{app.name}_mean_rate_mg_s": float(rates.mean()),
                f"{app.name}_max_rate_mg_s": float(rates.max()),
                f"{app.name}_mean_workers": float(workers.mean()),
                f"{app.name}_max_workers": float(workers.max()),
            }
        )
    carbon = list(db.series("grid.carbon_g_per_kwh").values())
    workers = list(db.series("app.webapp1.containers").values())
    n = min(len(carbon), len(workers))
    metrics["webapp1_workers_carbon_corr"] = float(np.corrcoef(carbon[:n], workers[:n])[0, 1])
    return metrics
