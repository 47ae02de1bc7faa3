"""Experiments for Figures 4 and 5 and the batch ablations.

Each function is one scenario run (see :mod:`repro.sim.catalog`): it
builds its environments from plain parameters and returns flat metrics.
The calibration is frozen here, so the scenarios, examples and tests
all observe the same configuration.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.carbon.traces import CarbonTrace, make_region_trace
from repro.core.config import ShareConfig
from repro.policies import (
    CarbonAgnosticPolicy,
    SuspendResumePolicy,
    WaitAndScalePolicy,
)
from repro.policies.base import Policy
from repro.sim.experiment import (
    UNLIMITED_GRID_SHARE,
    arrival_offsets,
    carbon_threshold,
    grid_environment,
    run_batch_policy,
)
from repro.sim.results import BatchRunResult, summarize_batch
from repro.workloads.base import BatchJob
from repro.workloads.blast import BlastJob
from repro.workloads.mltrain import MLTrainingJob

# Frozen calibration (see DESIGN.md, experiment index).
ML_TOTAL_WORK = 29000.0
ML_BASE_WORKERS = 4
ML_THRESHOLD_PERCENTILE = 30.0
ML_THRESHOLD_WINDOW_S = 48 * 3600.0
BLAST_TOTAL_WORK = 12000.0
BLAST_BASE_WORKERS = 8
BLAST_THRESHOLD_PERCENTILE = 33.0
TRACE_DAYS = 4
TRACE_SEED = 2023

#: Figure 4's policies: agnostic, the system-level suspend/resume, and
#: Wait&Scale at each scale factor.
ML_POLICIES = ("agnostic", "suspend-resume", "ws-2x", "ws-3x")
BLAST_POLICIES = ML_POLICIES + ("ws-4x",)
WAIT_AND_SCALE_FACTORS = {"ws-2x": 2.0, "ws-3x": 3.0, "ws-4x": 4.0}

#: The forecast ablation's arrivals and lookahead window.
FORECAST_OFFSETS_S = (0.0, 9 * 3600.0, 26 * 3600.0, 40 * 3600.0)
FORECAST_WINDOW_S = 24 * 3600.0


def _batch_policy(policy: str, threshold: float, base_workers: int) -> Policy:
    if policy == "agnostic":
        return CarbonAgnosticPolicy(base_workers)
    if policy == "suspend-resume":
        return SuspendResumePolicy(threshold, base_workers)
    if policy in WAIT_AND_SCALE_FACTORS:
        return WaitAndScalePolicy(
            threshold, base_workers, WAIT_AND_SCALE_FACTORS[policy]
        )
    raise ValueError(f"unknown batch policy: {policy!r}")


def _repeated_runs(
    make_app: Callable[[], BatchJob],
    make_policy: Callable[[CarbonTrace], Policy],
    label: str,
    trace: CarbonTrace,
    reps: int,
    days: int,
) -> Dict[str, float]:
    """Mean/std metrics of ``reps`` arrivals (one Figure 4 bar)."""
    offsets = arrival_offsets(reps, trace.duration_s)
    return summarize_batch(
        run_batch_policy(make_app, make_policy, label, trace, offsets, days * 24 * 60)
    ).metrics()


def run_ml_training_case(
    policy: str, reps: int = 10, days: int = TRACE_DAYS, seed: int = TRACE_SEED
) -> Dict[str, float]:
    """Figure 4a: ML training under one policy, ``reps`` random arrivals."""
    trace = make_region_trace("caiso", days=days, seed=seed)
    threshold = carbon_threshold(trace, ML_THRESHOLD_PERCENTILE, ML_THRESHOLD_WINDOW_S)
    return {
        "threshold_g_per_kwh": threshold,
        **_repeated_runs(
            lambda: MLTrainingJob(total_work_units=ML_TOTAL_WORK),
            lambda tr: _batch_policy(policy, threshold, ML_BASE_WORKERS),
            policy,
            trace,
            reps,
            days,
        ),
    }


def run_blast_case(
    policy: str, reps: int = 10, days: int = TRACE_DAYS, seed: int = TRACE_SEED
) -> Dict[str, float]:
    """Figure 4b: BLAST under one policy, ``reps`` random arrivals."""
    trace = make_region_trace("caiso", days=days, seed=seed)
    threshold = carbon_threshold(trace, BLAST_THRESHOLD_PERCENTILE)
    return {
        "threshold_g_per_kwh": threshold,
        **_repeated_runs(
            lambda: BlastJob(total_work_units=BLAST_TOTAL_WORK),
            lambda tr: _batch_policy(policy, threshold, BLAST_BASE_WORKERS),
            policy,
            trace,
            reps,
            days,
        ),
    }


def run_stall_power_case(
    stall: float,
    scale: float,
    reps: int = 6,
    days: int = TRACE_DAYS,
    seed: int = TRACE_SEED,
) -> Dict[str, float]:
    """Ablation: W&S ML training with barrier stalls at ``stall`` of
    dynamic power, scaled ``scale``x in low-carbon periods."""
    trace = make_region_trace("caiso", days=days, seed=seed)
    threshold = carbon_threshold(trace, ML_THRESHOLD_PERCENTILE, ML_THRESHOLD_WINDOW_S)
    return _repeated_runs(
        lambda: MLTrainingJob(total_work_units=ML_TOTAL_WORK, stall_power_fraction=stall),
        lambda tr: WaitAndScalePolicy(threshold, ML_BASE_WORKERS, scale),
        f"ws{scale:.0f}",
        trace,
        reps,
        days,
    )


def run_forecast_case(
    forecaster: str, days: int = TRACE_DAYS, seed: int = TRACE_SEED
) -> Dict[str, float]:
    """Ablation: W&S(2x) ML training with its threshold from a forecaster.

    ``forecaster`` is ``oracle`` (the paper's perfect foresight),
    ``diurnal-profile`` or ``persistence``, each warmed up on two days
    of observations; ``agnostic`` runs the carbon-agnostic baseline.
    One run per arrival in :data:`FORECAST_OFFSETS_S`.
    """
    from repro.carbon.forecast import (
        DiurnalProfileForecaster,
        OracleForecaster,
        PersistenceForecaster,
    )
    from repro.policies.forecast_threshold import ForecastWaitAndScalePolicy

    forecasters = {
        "oracle": OracleForecaster,
        "diurnal-profile": DiurnalProfileForecaster,
        "persistence": PersistenceForecaster,
    }
    if forecaster != "agnostic" and forecaster not in forecasters:
        raise ValueError(f"unknown forecaster: {forecaster!r}")
    base = make_region_trace("caiso", days=days, seed=seed)
    results = []
    for offset in FORECAST_OFFSETS_S:
        env = grid_environment(trace=base.rolled(offset))
        job = MLTrainingJob(total_work_units=ML_TOTAL_WORK)
        if forecaster == "agnostic":
            policy: Policy = CarbonAgnosticPolicy(ML_BASE_WORKERS)
        else:
            forecast = forecasters[forecaster](env.carbon_service)
            # Warm up with two days of historical observations, as a
            # deployed forecaster would have (the rolled trace's first
            # days stand in for the days before the job's arrival).
            for i in range(2 * 288):
                forecast.observe(i * 300.0)
            policy = ForecastWaitAndScalePolicy(
                forecast,
                percentile=ML_THRESHOLD_PERCENTILE,
                window_s=FORECAST_WINDOW_S,
                base_workers=ML_BASE_WORKERS,
                scale_factor=2.0,
            )
        env.engine.add_application(job, UNLIMITED_GRID_SHARE, policy)
        env.engine.run(days * 24 * 60, stop_when_batch_complete=True)
        account = env.ecovisor.ledger.account(job.name)
        results.append(
            BatchRunResult(
                policy_label=forecaster,
                arrival_offset_s=offset,
                runtime_s=job.completion_time_s or float("inf"),
                carbon_g=account.carbon_g,
                energy_wh=account.energy_wh,
                completed=job.is_complete,
            )
        )
    return summarize_batch(results).metrics()


def run_multitenancy_case(days: int = 2, seed: int = TRACE_SEED) -> Dict[str, float]:
    """Figure 5: ML (W&S 2x) and BLAST (W&S 3x) sharing one ecovisor.

    Reduces the per-app container-count series to what the paper's
    Figure 5(b)-(d) panels show: both thresholds, per-app carbon and
    completion, the peak and lowest counts, how many ticks ML spent at a
    count other than 0 or its full 8, and how many ticks both apps ran.
    """
    trace = make_region_trace("caiso", days=days, seed=seed)
    ml_threshold = carbon_threshold(trace, ML_THRESHOLD_PERCENTILE, ML_THRESHOLD_WINDOW_S)
    blast_threshold = carbon_threshold(trace, BLAST_THRESHOLD_PERCENTILE)
    env = grid_environment(trace=trace)

    ml_job = MLTrainingJob(name="ml-training", total_work_units=ML_TOTAL_WORK)
    blast_job = BlastJob(name="blast", total_work_units=BLAST_TOTAL_WORK)
    env.engine.add_application(
        ml_job,
        ShareConfig(grid_power_w=float("inf")),
        WaitAndScalePolicy(ml_threshold, ML_BASE_WORKERS, 2.0),
    )
    env.engine.add_application(
        blast_job,
        ShareConfig(grid_power_w=float("inf")),
        WaitAndScalePolicy(blast_threshold, BLAST_BASE_WORKERS, 3.0),
    )
    env.engine.run(days * 24 * 60)

    db = env.ecovisor.database
    ml = list(db.series("app.ml-training.containers").values())
    blast = list(db.series("app.blast.containers").values())
    cluster = [float(a + b) for a, b in zip(ml, blast)]
    ledger = env.ecovisor.ledger
    return {
        "ml_threshold_g_per_kwh": float(ml_threshold),
        "blast_threshold_g_per_kwh": float(blast_threshold),
        "ml_completed": 1.0 if ml_job.is_complete else 0.0,
        "blast_completed": 1.0 if blast_job.is_complete else 0.0,
        "ml_carbon_g": float(ledger.app_carbon_g("ml-training")),
        "blast_carbon_g": float(ledger.app_carbon_g("blast")),
        "ml_peak_containers": float(max(ml)),
        "blast_peak_containers": float(max(blast)),
        "cluster_peak_containers": float(max(cluster)),
        "ml_min_containers": float(min(ml)),
        "ml_partial_ticks": float(sum(1 for v in ml if v not in (0.0, 8.0))),
        "both_running_ticks": float(sum(1 for a, b in zip(ml, blast) if a > 0 and b > 1)),
    }
