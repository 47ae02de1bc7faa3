"""Experiments for Figures 10 and 11 (directly exploiting solar power).

A barrier-synchronized parallel job runs across 10 nodes purely on solar
power — no battery, no grid (paper Section 5.4).  Because servers are not
energy-proportional, allocating the limited supply matters:

- **Figure 10** — static equal per-container power caps vs dynamic caps
  proportional to each task's remaining work, swept over the fraction of
  available renewable power.  The less solar there is, the more the
  dynamic policy's balancing wins (near the idle floor, an equal split
  leaves every node barely above idle while the round waits on the
  largest task); energy-efficiency rises with solar as the fixed idle
  floor is amortized over more productive work.
- **Figure 11** — with injected stragglers (slow nodes) and solar scaled
  *above* the job's maximum draw, excess power that cannot be stored is
  spent on replica tasks; runtime improves with diminishing returns while
  energy-efficiency falls (replicas duplicate work).

Methodology notes (documented deviations):

- The paper sweeps a scaled solar *day*; completing a multi-hour job
  across day boundaries quantizes runtimes by whole nights at our scale,
  so the sweeps here hold solar constant at the swept fraction of the
  job's maximum draw.  :func:`run_solar_day_case` still runs the
  Figure 10(a)/(b) view over the real solar day.
- A lower-idle server profile (0.25 W idle, 5 W peak) keeps the static
  policy's equal split above the idle floor at 10% solar, matching the
  paper's operating range.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.analysis.metrics import (
    energy_efficiency_per_joule,
    pivot_rows,
    runtime_improvement_pct,
)
from repro.carbon.service import CarbonIntensityService
from repro.carbon.traces import constant_trace
from repro.cluster.cop import ContainerOrchestrationPlatform
from repro.core.clock import SimulationClock
from repro.core.config import (
    CarbonServiceConfig,
    ClusterConfig,
    EcovisorConfig,
    GridConfig,
    ServerConfig,
    ShareConfig,
    SolarConfig,
)
from repro.core.ecovisor import Ecovisor
from repro.energy.grid import GridConnection
from repro.energy.solar import (
    ConstantSolarTrace,
    SolarArrayEmulator,
    SolarTrace,
    TabularSolarTrace,
)
from repro.energy.system import PhysicalEnergySystem
from repro.policies import (
    DynamicSolarCapPolicy,
    StaticSolarCapPolicy,
    StragglerReplicaPolicy,
)
from repro.policies.base import worker_power_w
from repro.sim.engine import SimulationEngine
from repro.workloads.parallel import ParallelJob

NUM_TASKS = 10
LOW_IDLE_SERVER = ServerConfig(cores=4, idle_power_w=0.25, max_cpu_power_w=5.0)
CLUSTER = ClusterConfig(num_servers=12, server=LOW_IDLE_SERVER)
WORKER_POWER_W = worker_power_w(CLUSTER, cores=1.0)
JOB_MAX_POWER_W = NUM_TASKS * WORKER_POWER_W
SOLAR_ONLY_SHARE = ShareConfig(
    solar_fraction=1.0, battery_fraction=0.0, grid_power_w=0.0
)
SUNRISE_ROLL_MINUTES = 7 * 60
MAX_DAYS = 6
FIG10_WORK_CV = 0.35
FIG10_ROUNDS = 8
FIG10_MEAN_WORK = 1200.0
FIG11_ROUNDS = 8
FIG11_MEAN_WORK = 900.0
FIG11_STRAGGLER_PROBABILITY = 0.15


def _engine(solar: SolarArrayEmulator) -> SimulationEngine:
    plant = PhysicalEnergySystem(grid=GridConnection(GridConfig()), solar=solar)
    carbon = CarbonIntensityService(
        CarbonServiceConfig(region="constant"),
        trace=constant_trace(200.0, days=MAX_DAYS),
    )
    platform = ContainerOrchestrationPlatform(CLUSTER)
    ecovisor = Ecovisor(plant, platform, carbon, EcovisorConfig())
    return SimulationEngine(ecovisor, SimulationClock(60.0))


def _constant_solar(scale: float) -> SolarArrayEmulator:
    return SolarArrayEmulator(
        SolarConfig(
            peak_power_w=JOB_MAX_POWER_W, scale=scale, panel_efficiency_derating=1.0
        ),
        ConstantSolarTrace(1.0),
    )


def _day_solar(scale: float, seed: int) -> SolarArrayEmulator:
    """The Figure 10(a) solar day, rolled so t=0 sits near sunrise."""
    base = SolarTrace(days=MAX_DAYS, seed=seed, cloudiness=0.30)
    rolled = np.roll(base.samples, -SUNRISE_ROLL_MINUTES)
    return SolarArrayEmulator(
        SolarConfig(
            peak_power_w=JOB_MAX_POWER_W, scale=scale, panel_efficiency_derating=1.0
        ),
        TabularSolarTrace(rolled),
    )


def _make_policy(policy_kind: str):
    if policy_kind == "static":
        return StaticSolarCapPolicy()
    if policy_kind == "dynamic":
        return DynamicSolarCapPolicy()
    if policy_kind == "replicas":
        return StragglerReplicaPolicy(WORKER_POWER_W, enable_replicas=True)
    if policy_kind == "no-replicas":
        return StragglerReplicaPolicy(WORKER_POWER_W, enable_replicas=False)
    raise ValueError(f"unknown policy kind: {policy_kind}")


def _run_parallel(
    solar: SolarArrayEmulator,
    policy_kind: str,
    seed: int,
    straggler_probability: float,
    num_rounds: int,
    mean_task_work: float,
    work_cv: float = 0.20,
) -> Dict[str, float]:
    engine = _engine(solar)
    job = ParallelJob(
        name="parallel",
        num_tasks=NUM_TASKS,
        num_rounds=num_rounds,
        mean_task_work_units=mean_task_work,
        work_cv=work_cv,
        straggler_probability=straggler_probability,
        seed=seed,
    )
    engine.add_application(job, SOLAR_ONLY_SHARE, _make_policy(policy_kind))
    max_ticks = MAX_DAYS * 24 * 60
    engine.run(max_ticks, stop_when_batch_complete=True)
    account = engine.ecovisor.ledger.account("parallel")
    runtime = job.completion_time_s
    return {
        "runtime_s": runtime if runtime is not None else max_ticks * 60.0,
        "completed": 1.0 if job.is_complete else 0.0,
        "energy_wh": account.energy_wh,
        "work_units": job.work_done_units,
        "engine": engine,
    }


def run_solar_cap_case(
    solar_pct: float, policy: str, seed: int = 2023
) -> Dict[str, float]:
    """One Figure 10(c) run (one solar % x one cap policy), flat metrics.

    The scenario-registry unit of work: builds the solar-only plant at
    ``solar_pct`` percent of the job's maximum draw, runs the parallel
    job under ``policy`` ("static" or "dynamic" per-container caps), and
    returns picklable scalars only (the engine never leaves the worker).
    """
    out = _run_parallel(
        _constant_solar(float(solar_pct) / 100.0), policy, int(seed), 0.0,
        FIG10_ROUNDS, FIG10_MEAN_WORK, FIG10_WORK_CV,
    )
    return {
        "runtime_s": float(out["runtime_s"]),
        "completed": float(out["completed"]),
        "energy_wh": float(out["energy_wh"]),
        "work_units": float(out["work_units"]),
    }


def run_straggler_case(
    solar_pct: float, policy: str, seed: int = 2023
) -> Dict[str, float]:
    """One Figure 11 run (one solar % x replicas on/off), flat metrics.

    The scenario-registry unit of work for ``fig11_stragglers``: solar
    held at ``solar_pct`` percent of the job's maximum draw (>= 100% —
    the excess-power operating range), stragglers injected, and the
    replica policy enabled (``"replicas"``) or disabled
    (``"no-replicas"``).
    """
    out = _run_parallel(
        _constant_solar(float(solar_pct) / 100.0), policy, int(seed),
        FIG11_STRAGGLER_PROBABILITY, FIG11_ROUNDS, FIG11_MEAN_WORK,
    )
    return {
        "runtime_s": float(out["runtime_s"]),
        "completed": float(out["completed"]),
        "energy_wh": float(out["energy_wh"]),
        "work_units": float(out["work_units"]),
    }


def straggler_rows(table: List[Dict[str, float]]) -> List[Dict[str, float]]:
    """Pair replica/no-replica sweep rows into the Figure 11 row shape."""
    paired = pivot_rows(table, "solar_pct", "policy")
    rows = []
    for pct in sorted(paired):
        baseline = paired[pct]["no-replicas"]
        replicas = paired[pct]["replicas"]
        rows.append(
            {
                "solar_pct": float(pct),
                "runtime_baseline_s": baseline["runtime_s"],
                "runtime_replicas_s": replicas["runtime_s"],
                "runtime_improvement_pct": runtime_improvement_pct(
                    baseline["runtime_s"], replicas["runtime_s"]
                ),
                "energy_efficiency_per_j": energy_efficiency_per_joule(
                    replicas["work_units"], replicas["energy_wh"]
                ),
                "baseline_completed": baseline["completed"],
                "replicas_completed": replicas["completed"],
            }
        )
    return rows


def solar_cap_rows(table: List[Dict[str, float]]) -> List[Dict[str, float]]:
    """Pair static/dynamic sweep rows into the Figure 10(c) row shape.

    Takes the tidy table of a ``fig10_solar_caps`` sweep (one row per
    (solar_pct, policy) run) and reduces each solar percentage to one
    comparison row: runtimes, the dynamic policy's runtime improvement,
    and the dynamic run's energy-efficiency.
    """
    paired = pivot_rows(table, "solar_pct", "policy")
    rows = []
    for pct in sorted(paired):
        static = paired[pct]["static"]
        dynamic = paired[pct]["dynamic"]
        rows.append(
            {
                "solar_pct": float(pct),
                "runtime_static_s": static["runtime_s"],
                "runtime_dynamic_s": dynamic["runtime_s"],
                "runtime_improvement_pct": runtime_improvement_pct(
                    static["runtime_s"], dynamic["runtime_s"]
                ),
                "energy_efficiency_per_j": energy_efficiency_per_joule(
                    dynamic["work_units"], dynamic["energy_wh"]
                ),
                "static_completed": static["completed"],
                "dynamic_completed": dynamic["completed"],
            }
        )
    return rows


def run_solar_day_case(seed: int = 2023) -> Dict[str, float]:
    """Figures 10(a)/(b): the dynamic caps over a real (rolled) solar day.

    Reports what the two panels show: how many per-container cap series
    the run recorded, the solar and application power peaks, and the
    share of ticks in which the application drew more than half a watt
    above the solar supply (the dynamic caps keep demand within it).
    """
    run = _run_parallel(
        _day_solar(1.0, seed), "dynamic", seed, 0.0,
        FIG10_ROUNDS, FIG10_MEAN_WORK, FIG10_WORK_CV,
    )
    db = run["engine"].ecovisor.database
    solar_series = db.series("plant.solar_w")
    app_series = db.series("app.parallel.power_w")
    solar = dict(zip(solar_series.times(), solar_series.values()))
    app = dict(zip(app_series.times(), app_series.values()))
    overdraws = sum(1 for t in app if t in solar and app[t] > solar[t] + 0.5)
    return {
        "runtime_s": float(run["runtime_s"]),
        "completed": float(run["completed"]),
        "container_cap_series": float(
            sum(
                1
                for name in db.series_names()
                if name.startswith("container.") and name.endswith(".power_w")
            )
        ),
        "peak_solar_w": float(max(solar.values())),
        "peak_app_power_w": float(max(app.values())),
        "ticks": float(len(app)),
        "overdraw_fraction": overdraws / len(app),
    }


def run_solar_buffer_case(buffer: bool, seed: int = 11) -> Dict[str, float]:
    """Ablation: the one-tick solar buffer under fast-moving clouds.

    A solar-tracking parallel job with the ecovisor's one-tick solar
    buffer on (the paper's design, Section 3.1) or off (a
    perfect-knowledge upper bound the design trades away for
    predictability).
    """
    days = 4
    solar = SolarArrayEmulator(
        SolarConfig(peak_power_w=12.5, panel_efficiency_derating=1.0),
        SolarTrace(days=days, seed=seed, cloudiness=0.6),  # very cloudy: fast swings
    )
    plant = PhysicalEnergySystem(grid=GridConnection(), solar=solar)
    carbon = CarbonIntensityService(
        CarbonServiceConfig(region="constant"),
        trace=constant_trace(200.0, days=days),
    )
    platform = ContainerOrchestrationPlatform(
        ClusterConfig(num_servers=8, server=ServerConfig(cores=4, idle_power_w=0.25))
    )
    ecovisor = Ecovisor(
        plant, platform, carbon, EcovisorConfig(solar_buffer_enabled=bool(buffer))
    )
    engine = SimulationEngine(ecovisor, SimulationClock(60.0))
    job = ParallelJob(
        name="parallel", num_tasks=10, num_rounds=6, mean_task_work_units=600.0, seed=seed
    )
    engine.add_application(
        job, ShareConfig(solar_fraction=1.0, grid_power_w=0.0), DynamicSolarCapPolicy()
    )
    engine.run(days * 24 * 60, stop_when_batch_complete=True)
    account = ecovisor.ledger.account("parallel")
    return {
        "runtime_s": job.completion_time_s or float("inf"),
        "unmet_wh": float(account.unmet_wh),
        "energy_wh": float(account.energy_wh),
        "completed": 1.0 if job.is_complete else 0.0,
    }
