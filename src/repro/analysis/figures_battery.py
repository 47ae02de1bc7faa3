"""Experiments for Figures 8 and 9 (virtual battery policies).

Two zero-carbon applications share a solar array and physical battery
50/50 (paper Section 5.3): a delay-tolerant Spark job with HDFS
checkpointing, and a solar-monitoring web application whose workload
follows daylight.  Both receive a *zero grid share*, so their virtual
energy systems cannot emit carbon — any shortfall simply limits capacity.

Two runs are compared:

- **static** — the system-level battery-smoothing policy: a fixed worker
  pool whose power the battery can always guarantee; clean checkpointed
  shutdown at dusk.
- **dynamic** — application-specific policies: Spark opportunistically
  surges onto excess solar once its battery is nearly full (accepting
  un-checkpointed loss at kill time); the web app sizes its pool to the
  latency SLO and spends battery on workload bursts.

Plant sizing follows the prototype's proportions scaled to the workload:
solar peak funds roughly twice the static pools, and each app's battery
share stores a few hours of its guaranteed power.
"""

from __future__ import annotations

from typing import Dict

from repro.core.config import ClusterConfig, ServerConfig, ShareConfig
from repro.policies import (
    DynamicSparkBatteryPolicy,
    DynamicWebBatteryPolicy,
    StaticBatterySmoothingPolicy,
)
from repro.policies.base import worker_power_w
from repro.sim.experiment import solar_battery_environment
from repro.workloads.spark import SparkJob
from repro.workloads.traces import daytime_request_trace
from repro.workloads.webapp import WebApplication
from repro.energy.solar import SolarTrace

SOLAR_PEAK_W = 36.0
BATTERY_CAPACITY_WH = 40.0
SPARK_TOTAL_WORK = 400000.0
SOLAR_CLOUDINESS = 0.25
SPARK_STATIC_WORKERS = 4
WEB_STATIC_WORKERS = 4
WEB_SLO_MS = 100.0
WEB_SERVICE_RATE_RPS = 50.0
WEB_PEAK_RPS = 280.0
DAYS = 4
CLUSTER = ClusterConfig(num_servers=12, server=ServerConfig())
ZERO_CARBON_SHARE = ShareConfig(
    solar_fraction=0.5, battery_fraction=0.5, grid_power_w=0.0
)


def _run(policy_kind: str, seed: int) -> Dict[str, object]:
    if policy_kind not in ("static", "dynamic"):
        raise ValueError(f"unknown policy kind: {policy_kind!r}")
    env = solar_battery_environment(
        solar_peak_w=SOLAR_PEAK_W,
        battery_capacity_wh=BATTERY_CAPACITY_WH,
        days=DAYS,
        seed=seed,
        cluster=CLUSTER,
        cloudiness=SOLAR_CLOUDINESS,
    )
    per_worker_w = worker_power_w(CLUSTER, cores=1.0)

    spark = SparkJob(name="spark", total_work_units=SPARK_TOTAL_WORK)
    solar_trace = SolarTrace(days=DAYS, seed=seed, cloudiness=SOLAR_CLOUDINESS)
    web_trace = daytime_request_trace(
        solar_trace.samples, peak_rps=WEB_PEAK_RPS, seed=seed + 5
    )
    web = WebApplication(
        "web-monitor",
        web_trace,
        slo_ms=WEB_SLO_MS,
        service_rate_rps=WEB_SERVICE_RATE_RPS,
    )

    if policy_kind == "static":
        spark_policy = StaticBatterySmoothingPolicy(
            SPARK_STATIC_WORKERS, per_worker_w
        )
        web_policy = StaticBatterySmoothingPolicy(WEB_STATIC_WORKERS, per_worker_w)
    else:
        spark_policy = DynamicSparkBatteryPolicy(
            SPARK_STATIC_WORKERS,
            per_worker_w,
            battery_full_fraction=0.55,
            max_workers=16,
        )
        web_policy = DynamicWebBatteryPolicy(per_worker_w, max_workers=10)

    env.engine.add_application(spark, ZERO_CARBON_SHARE, spark_policy)
    env.engine.add_application(web, ZERO_CARBON_SHARE, web_policy)
    env.engine.run(DAYS * 24 * 60, stop_when_batch_complete=False)
    return {"env": env, "spark": spark, "web": web}


def run_battery_policy_case(policy: str, seed: int = 2023) -> Dict[str, float]:
    """One Figure 8/9 run as a flat, picklable metrics dict.

    This is the scenario-registry unit of work (one policy kind per
    worker process): it builds the whole environment in-process and
    reduces the run to scalar metrics — Spark runtime and loss, web SLO
    statistics, per-application carbon, and the Figure 9 virtual-battery
    statistics (SoC range, signed battery power range, and the maximum
    SoC divergence between the two tenants).
    """
    import numpy as np

    run = _run(policy, seed)
    env = run["env"]
    spark: SparkJob = run["spark"]
    web: WebApplication = run["web"]
    ledger = env.ecovisor.ledger
    db = env.ecovisor.database
    runtime = spark.completion_time_s
    metrics: Dict[str, float] = {
        "spark_runtime_s": runtime if runtime is not None else float("inf"),
        "spark_completed": 1.0 if spark.is_complete else 0.0,
        "spark_lost_units": float(spark.lost_units_total),
        "web_ticks": float(web.tick_count),
        "web_violation_fraction": (
            web.violation_ticks / web.tick_count if web.tick_count else 0.0
        ),
        "web_mean_p95_ms": float(web.mean_latency_ms),
        "web_worst_p95_ms": float(web.worst_latency_ms),
        "web_slo_ms": float(web.slo_ms),
        "spark_carbon_g": float(ledger.app_carbon_g("spark")),
        "web_carbon_g": float(ledger.app_carbon_g("web-monitor")),
    }
    socs = {}
    for app_name, prefix in (("spark", "spark"), ("web-monitor", "web")):
        soc = np.asarray(list(db.series(f"app.{app_name}.battery_soc").values()))
        power = np.asarray(
            list(db.series(f"app.{app_name}.battery_power_w").values())
        )
        socs[app_name] = soc
        metrics[f"{prefix}_soc_min"] = float(soc.min())
        metrics[f"{prefix}_soc_max"] = float(soc.max())
        metrics[f"{prefix}_battery_power_min_w"] = float(power.min())
        metrics[f"{prefix}_battery_power_max_w"] = float(power.max())
    n = min(len(socs["spark"]), len(socs["web-monitor"]))
    metrics["soc_divergence_max"] = float(
        np.abs(socs["spark"][:n] - socs["web-monitor"][:n]).max()
    )
    return metrics
