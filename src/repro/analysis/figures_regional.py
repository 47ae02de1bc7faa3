"""Regional-grid experiments: one policy grid across bundled datasets.

The paper's Figure 1 motivates carbon-aware scheduling by contrasting
three regional grids (Ontario, Uruguay, California); its evaluation then
runs everything on CAISO alone.  The ``regional`` scenario family closes
that loop with the provider registry: the *same* policy grid runs across
bundled historical carbon datasets (``caiso-2022``, ``ontario-2022``,
``germany-2022``), with on-site generation resolved by name
(``solar``, ``wind+solar``) from capacity-factor datasets and day-ahead
prices attached for billing.

Every signal is registry-resolved from bundled datasets, so these runs
run fully offline and carry dataset checksums in their sweep
provenance — the per-run metrics repeat the carbon dataset name and
SHA-256 so a results table is self-describing.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

# Frozen calibration for the regional sweep (scenario-overridable).
REGIONAL_DAYS = 2
REGIONAL_WORK_UNITS = 200000.0
REGIONAL_PERCENTILE = 35.0
# The paper's Section 5.1 shape: the agnostic baseline and
# suspend/resume run at the base width; Wait&Scale doubles it during
# low-carbon periods (so W&S trades longer wall-clock for cleaner and
# wider execution, and the two carbon-aware policies stay distinct).
REGIONAL_BASE_WORKERS = 4
REGIONAL_SCALE_FACTOR = 2.0
#: On-site generation sized against the 12-server cluster (60 W peak
#: demand): either source alone can cover the cluster at full output.
REGIONAL_SOLAR_PEAK_W = 100.0
REGIONAL_WIND_RATED_W = 100.0
#: Day-ahead prices are the regional family's billing feed.
REGIONAL_PRICE_DATASET = "caiso-dayahead-2022"


def run_regional_case(
    region: str,
    policy: str,
    generation: str = "solar",
    seed: int = 2023,
    days: int = REGIONAL_DAYS,
    work_units: float = REGIONAL_WORK_UNITS,
    percentile: float = REGIONAL_PERCENTILE,
) -> Dict[str, Any]:
    """One (carbon dataset, policy, generation mix) run; flat metrics.

    Builds a grid + on-site-generation plant entirely from registry
    names: ``region`` resolves to a carbon dataset (or synthetic region),
    ``generation`` to solar/wind capacity-factor datasets.  An ML
    training job with a full solar share runs under the named policy;
    metrics include the carbon dataset's name and checksum so every
    results row states its data provenance.
    """
    from repro.core.config import ShareConfig, SolarConfig, WindConfig
    from repro.energy.grid import GridConnection
    from repro.energy.solar import SolarArrayEmulator
    from repro.energy.system import PhysicalEnergySystem
    from repro.energy.wind import WindPlant
    from repro.policies import (
        CarbonAgnosticPolicy,
        SuspendResumePolicy,
        WaitAndScalePolicy,
    )
    from repro.providers.registry import (
        DATASETS,
        resolve_carbon_trace,
        resolve_generation,
        resolve_price_trace,
    )
    from repro.sim.experiment import DEFAULT_CLUSTER, _wire, carbon_threshold
    from repro.workloads.mltrain import MLTrainingJob

    days = int(days)
    trace = resolve_carbon_trace(str(region), days=days, seed=int(seed))
    price_trace = resolve_price_trace(
        REGIONAL_PRICE_DATASET, days=days, seed=int(seed)
    )
    solar_trace, wind_trace = resolve_generation(str(generation))

    solar = (
        SolarArrayEmulator(
            SolarConfig(peak_power_w=REGIONAL_SOLAR_PEAK_W), solar_trace
        )
        if solar_trace is not None
        else None
    )
    wind = (
        WindPlant(WindConfig(rated_power_w=REGIONAL_WIND_RATED_W), wind_trace)
        if wind_trace is not None
        else None
    )
    plant = PhysicalEnergySystem(grid=GridConnection(), solar=solar, wind=wind)
    env = _wire(plant, trace, DEFAULT_CLUSTER, 60.0, price_trace)
    window_s = float(days * 24 * 3600)

    threshold = carbon_threshold(trace, float(percentile), window_s)
    if policy == "agnostic":
        chosen = CarbonAgnosticPolicy(REGIONAL_BASE_WORKERS)
    elif policy == "wait-and-scale":
        chosen = WaitAndScalePolicy(
            threshold, REGIONAL_BASE_WORKERS, REGIONAL_SCALE_FACTOR
        )
    elif policy == "suspend-resume":
        chosen = SuspendResumePolicy(threshold, REGIONAL_BASE_WORKERS)
    else:
        raise ValueError(f"unknown regional policy: {policy!r}")

    job = MLTrainingJob(total_work_units=float(work_units))
    share = ShareConfig(solar_fraction=1.0, grid_power_w=float("inf"))
    env.engine.add_application(job, share, chosen)
    max_ticks = days * 24 * 60
    env.engine.run(max_ticks, stop_when_batch_complete=True)

    account = env.ecovisor.ledger.account(job.name)
    runtime = job.completion_time_s
    carbon_dataset = str(region) if str(region) in DATASETS else ""
    return {
        "runtime_s": float(runtime) if runtime is not None else max_ticks * 60.0,
        "completed": 1.0 if job.is_complete else 0.0,
        "energy_wh": float(account.energy_wh),
        "grid_wh": float(account.grid_wh),
        "renewable_wh": float(account.solar_wh),
        "carbon_g": float(account.carbon_g),
        "cost_usd": float(account.cost_usd),
        "carbon_threshold_g_per_kwh": float(threshold),
        "carbon_dataset": carbon_dataset,
        "carbon_checksum": (
            DATASETS[carbon_dataset].sha256 if carbon_dataset else ""
        ),
    }


def regional_summary_rows(
    table: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Reduce a tidy ``regional`` sweep table to per-region policy rows.

    One row per (region, generation, policy) with carbon/runtime and the
    carbon reduction relative to the same region+generation's agnostic
    baseline — the Figure 4 'carbon savings' framing, per region.
    """
    baselines: Dict[tuple, float] = {}
    for row in table:
        if row.get("status", "ok") != "ok":
            continue
        if str(row["policy"]) == "agnostic":
            key = (str(row["region"]), str(row["generation"]))
            baselines[key] = float(row["carbon_g"])

    rows: List[Dict[str, Any]] = []
    for row in table:
        if row.get("status", "ok") != "ok":
            continue
        key = (str(row["region"]), str(row["generation"]))
        baseline = baselines.get(key)
        reduction = (
            (baseline - float(row["carbon_g"])) / baseline
            if baseline
            else 0.0
        )
        rows.append(
            {
                "region": str(row["region"]),
                "generation": str(row["generation"]),
                "policy": str(row["policy"]),
                "carbon_g": float(row["carbon_g"]),
                "runtime_s": float(row["runtime_s"]),
                "completed": float(row["completed"]),
                "carbon_reduction_vs_agnostic": float(reduction),
                "carbon_dataset": str(row.get("carbon_dataset", "")),
                "carbon_checksum": str(row.get("carbon_checksum", "")),
            }
        )
    rows.sort(key=lambda r: (r["region"], r["generation"], r["policy"]))
    return rows
