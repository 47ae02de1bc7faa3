"""Built-in scenario catalog: every paper figure, ablation and extension.

Importing this module populates the scenario registry
(:mod:`repro.sim.scenarios`).  Each figure of the paper's Section 5 is
one scenario here (Figure 9 is a view of ``fig08_battery_policies``'s
runs, Figure 7 of ``fig06_web_budgeting``'s), and
:mod:`repro.analysis.claims` checks the paper's numbers against their
metrics.  Each run function follows the registry contract:

- module-level (importable by worker processes, picklable by reference);
- takes one parameter dict, builds every simulation object itself;
- returns a flat dict of JSON-serializable scalar metrics;
- deterministic given its parameters (all randomness flows from ``seed``).

Heavyweight imports happen inside the run functions so that importing
the catalog (and therefore ``repro.sim``) stays cheap and cycle-free.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.sim.scenarios import register

# Figure 8/9 constants (mirrors repro.analysis.figures_battery).
GEO_WORK_UNITS = 8 * 60.0 * 600  # ~10 h of work for 8 geo workers
GEO_MAX_TICKS = 2 * 24 * 60
THRESHOLD_WINDOW_S = 48 * 3600.0  # Section 5.1 lookahead window


@register(
    "smoke",
    description=(
        "Tiny grid-only run (one day trace, a small ML job, a carbon-"
        "agnostic policy) used by CI and the runner self-tests. "
        "fail=1 raises inside the run to exercise failure isolation."
    ),
    defaults={"seed": 2023, "ticks": 40, "fail": 0},
    sweep={"workers": (2, 4)},
    tags=("ci", "fast"),
)
def run_smoke(params: Dict[str, Any]) -> Dict[str, Any]:
    """A seconds-scale end-to-end run returning energy/carbon totals."""
    if params["fail"]:
        raise RuntimeError("injected smoke-scenario failure (fail=1)")
    from repro.carbon.traces import make_region_trace
    from repro.core.config import ShareConfig
    from repro.policies import CarbonAgnosticPolicy
    from repro.sim.experiment import grid_environment
    from repro.workloads.mltrain import MLTrainingJob

    trace = make_region_trace("caiso", days=1, seed=int(params["seed"]))
    env = grid_environment(trace=trace)
    job = MLTrainingJob(total_work_units=1200.0)
    env.engine.add_application(
        job,
        ShareConfig(grid_power_w=float("inf")),
        CarbonAgnosticPolicy(workers=int(params["workers"])),
    )
    executed = env.engine.run(int(params["ticks"]), stop_when_batch_complete=True)
    account = env.ecovisor.ledger.account(job.name)
    return {
        "ticks_executed": float(executed),
        "progress_units": float(job.progress_units),
        "energy_wh": float(account.energy_wh),
        "carbon_g": float(account.carbon_g),
        "completed": 1.0 if job.is_complete else 0.0,
    }


@register(
    "fig01_carbon_traces",
    description=(
        "Figure 1: four days of grid carbon intensity for three regions "
        "-- Ontario (nuclear), Uruguay (hydro) and California (fossil "
        "plus solar)."
    ),
    defaults={"seed": 2023, "days": 4},
    sweep={"region": ("ontario", "uruguay", "caiso")},
    tags=("figure",),
)
def run_fig01_carbon_traces(params: Dict[str, Any]) -> Dict[str, Any]:
    """One region's trace statistics (g/kWh) and its sampling."""
    import numpy as np

    from repro.carbon.traces import SAMPLE_INTERVAL_S, make_region_trace

    trace = make_region_trace(
        str(params["region"]), days=int(params["days"]), seed=int(params["seed"])
    )
    values = np.asarray(trace.samples, dtype=float)
    return {
        "mean_g_per_kwh": float(values.mean()),
        "min_g_per_kwh": float(values.min()),
        "max_g_per_kwh": float(values.max()),
        "std_g_per_kwh": float(values.std()),
        "samples": float(len(values)),
        "interval_s": float(SAMPLE_INTERVAL_S),
    }


@register(
    "fig04a_ml_training",
    description=(
        "Figure 4a: PyTorch-style ML training under carbon-agnostic, "
        "suspend/resume and Wait&Scale (2x, 3x) policies, each averaged "
        "over random arrivals on a CAISO-like trace (paper Section 5.1)."
    ),
    defaults={"seed": 2023, "reps": 10, "days": 4},
    sweep={"policy": ("agnostic", "suspend-resume", "ws-2x", "ws-3x")},
    tags=("figure",),
)
def run_fig04a_ml_training(params: Dict[str, Any]) -> Dict[str, Any]:
    """One policy's mean/std over the arrivals; see ``run_ml_training_case``."""
    from repro.analysis.figures_batch import run_ml_training_case

    return run_ml_training_case(
        str(params["policy"]), int(params["reps"]), int(params["days"]), int(params["seed"])
    )


@register(
    "fig04b_blast",
    description=(
        "Figure 4b: BLAST under carbon-agnostic, suspend/resume and "
        "Wait&Scale (2x, 3x, 4x) policies; at 4x the central queue "
        "server saturates (paper Section 5.1)."
    ),
    defaults={"seed": 2023, "reps": 10, "days": 4},
    sweep={"policy": ("agnostic", "suspend-resume", "ws-2x", "ws-3x", "ws-4x")},
    tags=("figure",),
)
def run_fig04b_blast(params: Dict[str, Any]) -> Dict[str, Any]:
    """One policy's mean/std over the arrivals; see ``run_blast_case``."""
    from repro.analysis.figures_batch import run_blast_case

    return run_blast_case(
        str(params["policy"]), int(params["reps"]), int(params["days"]), int(params["seed"])
    )


@register(
    "fig06_web_budgeting",
    description=(
        "Figures 6-7: two web services for 48 h under the static carbon "
        "rate limit (system policy) or the dynamic carbon budget "
        "(application policy) -- SLO attainment, carbon rate and "
        "workers (paper Section 5.2)."
    ),
    defaults={"seed": 2023},
    sweep={"policy": ("static", "dynamic")},
    tags=("figure",),
)
def run_fig06_web_budgeting(params: Dict[str, Any]) -> Dict[str, Any]:
    """One policy over both apps; see ``run_web_budgeting_case``."""
    from repro.analysis.figures_web import run_web_budgeting_case

    return run_web_budgeting_case(str(params["policy"]), int(params["seed"]))


@register(
    "fig08_battery_policies",
    description=(
        "Figures 8-9: static system policy vs application-specific "
        "dynamic policies for two zero-carbon tenants sharing a solar "
        "array and physical battery 50/50 (paper Section 5.3); the "
        "virtual-battery metrics are Figure 9."
    ),
    defaults={"seed": 2023},
    sweep={"policy": ("static", "dynamic")},
    tags=("figure",),
)
def run_fig08_battery_policies(params: Dict[str, Any]) -> Dict[str, Any]:
    """One battery-policy run; see ``run_battery_policy_case``."""
    from repro.analysis.figures_battery import run_battery_policy_case

    return run_battery_policy_case(str(params["policy"]), int(params["seed"]))


@register(
    "fig05_multitenancy",
    description=(
        "Figure 5: ML training (W&S 2x) and BLAST (W&S 3x) sharing one "
        "ecovisor, each suspending and scaling against its own carbon "
        "threshold on the same physical cluster (paper Section 5.1.3)."
    ),
    defaults={"seed": 2023, "days": 2},
    tags=("figure",),
)
def run_fig05_multitenancy(params: Dict[str, Any]) -> Dict[str, Any]:
    """One multi-tenant run; see ``run_multitenancy_case``."""
    from repro.analysis.figures_batch import run_multitenancy_case

    return run_multitenancy_case(int(params["days"]), int(params["seed"]))


@register(
    "fig10_solar_day",
    description=(
        "Figures 10(a)-(b): dynamic per-container power caps for a "
        "barrier-synchronized job over a real solar day (paper "
        "Section 5.4)."
    ),
    defaults={"seed": 2023},
    tags=("figure",),
)
def run_fig10_solar_day(params: Dict[str, Any]) -> Dict[str, Any]:
    """The solar-day run; see ``run_solar_day_case``."""
    from repro.analysis.figures_solar import run_solar_day_case

    return run_solar_day_case(int(params["seed"]))


@register(
    "fig10_solar_caps",
    description=(
        "Figure 10(c): static vs dynamic per-container power caps for a "
        "barrier-synchronized job on solar only, swept over available "
        "solar power (paper Section 5.4)."
    ),
    defaults={"seed": 2023},
    sweep={
        "solar_pct": (10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0),
        "policy": ("static", "dynamic"),
    },
    tags=("figure",),
)
def run_fig10_solar_caps(params: Dict[str, Any]) -> Dict[str, Any]:
    """One (solar %, cap policy) run; see ``run_solar_cap_case``."""
    from repro.analysis.figures_solar import run_solar_cap_case

    return run_solar_cap_case(
        float(params["solar_pct"]), str(params["policy"]), int(params["seed"])
    )


@register(
    "fig11_stragglers",
    description=(
        "Figure 11: replica-based straggler mitigation under excess "
        "solar (100-200% of the job's maximum draw) — replicas enabled "
        "vs disabled at each solar percentage (paper Section 5.4)."
    ),
    defaults={"seed": 2023},
    sweep={
        "solar_pct": (
            100.0, 110.0, 120.0, 130.0, 140.0, 150.0,
            160.0, 170.0, 180.0, 190.0, 200.0,
        ),
        "policy": ("no-replicas", "replicas"),
    },
    tags=("figure",),
)
def run_fig11_stragglers(params: Dict[str, Any]) -> Dict[str, Any]:
    """One (solar %, replica policy) run; see ``run_straggler_case``."""
    from repro.analysis.figures_solar import run_straggler_case

    return run_straggler_case(
        float(params["solar_pct"]), str(params["policy"]), int(params["seed"])
    )


@register(
    "ablation_threshold",
    description=(
        "Ablation: sensitivity of the suspend/resume carbon threshold "
        "to its percentile (the paper fixes the 30th percentile for ML "
        "training; this sweeps the carbon-vs-runtime tradeoff)."
    ),
    defaults={"seed": 2023, "reps": 6, "days": 4},
    sweep={"percentile": (20.0, 30.0, 40.0, 50.0)},
    tags=("ablation",),
)
def run_ablation_threshold(params: Dict[str, Any]) -> Dict[str, Any]:
    """Repeated W&S(2x) ML-training runs at one threshold percentile."""
    from repro.carbon.traces import make_region_trace
    from repro.policies import WaitAndScalePolicy
    from repro.sim.experiment import (
        arrival_offsets,
        carbon_threshold,
        run_batch_policy,
    )
    from repro.sim.results import summarize_batch
    from repro.workloads.mltrain import MLTrainingJob

    percentile = float(params["percentile"])
    days = int(params["days"])
    trace = make_region_trace("caiso", days=days, seed=int(params["seed"]))
    offsets = arrival_offsets(int(params["reps"]), trace.duration_s)
    threshold = carbon_threshold(trace, percentile, THRESHOLD_WINDOW_S)
    summary = summarize_batch(
        run_batch_policy(
            make_app=lambda: MLTrainingJob(total_work_units=29000.0),
            make_policy=lambda t, thr=threshold: WaitAndScalePolicy(thr, 4, 2.0),
            policy_label=f"p{percentile:.0f}",
            base_trace=trace,
            offsets=offsets,
            max_ticks=days * 24 * 60,
        )
    )
    return {"threshold_g_per_kwh": float(threshold), **summary.metrics()}


@register(
    "ablation_stall_power",
    description=(
        "Ablation: synchronization stall power -- the fraction of "
        "dynamic power ML barrier stalls draw, the knob that makes "
        "over-scaling Wait&Scale carbon-expensive (the paper's +14.94% "
        "for 3x over 2x sits between free and full-power stalls)."
    ),
    defaults={"seed": 2023, "reps": 6, "days": 4},
    sweep={"stall": (0.0, 0.5, 1.0), "scale": (2.0, 3.0)},
    tags=("ablation",),
)
def run_ablation_stall_power(params: Dict[str, Any]) -> Dict[str, Any]:
    """Repeated W&S runs at one (stall fraction, scale factor) point."""
    from repro.analysis.figures_batch import run_stall_power_case

    return run_stall_power_case(
        float(params["stall"]),
        float(params["scale"]),
        int(params["reps"]),
        int(params["days"]),
        int(params["seed"]),
    )


@register(
    "ablation_forecast",
    description=(
        "Ablation: the cost of imperfect carbon foresight -- W&S(2x) "
        "with its threshold from an oracle (the paper's perfect "
        "forecast), a diurnal-profile or a persistence forecaster, "
        "against the carbon-agnostic baseline."
    ),
    defaults={"seed": 2023, "days": 4},
    sweep={"forecaster": ("agnostic", "oracle", "diurnal-profile", "persistence")},
    tags=("ablation",),
)
def run_ablation_forecast(params: Dict[str, Any]) -> Dict[str, Any]:
    """One forecaster over the four arrivals; see ``run_forecast_case``."""
    from repro.analysis.figures_batch import run_forecast_case

    return run_forecast_case(
        str(params["forecaster"]), int(params["days"]), int(params["seed"])
    )


@register(
    "ablation_solar_buffer",
    description=(
        "Ablation: the one-tick solar buffer (paper Section 3.1) -- a "
        "solar-tracking job under heavy clouds with the buffer on "
        "(next-tick supply known) or off (instant truth)."
    ),
    defaults={"seed": 11},
    sweep={"buffer": (True, False)},
    tags=("ablation",),
)
def run_ablation_solar_buffer(params: Dict[str, Any]) -> Dict[str, Any]:
    """One buffer setting; see ``run_solar_buffer_case``."""
    from repro.analysis.figures_solar import run_solar_buffer_case

    return run_solar_buffer_case(bool(params["buffer"]), int(params["seed"]))


@register(
    "ablation_battery",
    description=(
        "Ablation: battery one-way efficiency x depth-of-discharge "
        "floor — how much solar-shifted energy a zero-carbon "
        "application actually recovers (DESIGN.md Section 5)."
    ),
    defaults={"seed": 2023, "days": 3},
    sweep={"efficiency": (1.0, 0.95, 0.85), "floor": (0.0, 0.30)},
    tags=("ablation",),
)
def run_ablation_battery(params: Dict[str, Any]) -> Dict[str, Any]:
    """One solar+battery-only Spark run at one (efficiency, floor) point.

    Sized so the battery binds: a 6-worker pool outdraws the morning and
    evening solar shoulders, so recovered battery energy (and therefore
    efficiency and the DoD floor) directly limits work done.
    """
    from repro.carbon.service import CarbonIntensityService
    from repro.carbon.traces import constant_trace
    from repro.cluster.cop import ContainerOrchestrationPlatform
    from repro.core.clock import SimulationClock
    from repro.core.config import (
        BatteryConfig,
        CarbonServiceConfig,
        ClusterConfig,
        EcovisorConfig,
        ShareConfig,
        SolarConfig,
    )
    from repro.core.ecovisor import Ecovisor
    from repro.energy.battery import Battery
    from repro.energy.solar import SolarArrayEmulator, SolarTrace
    from repro.energy.system import PhysicalEnergySystem
    from repro.policies import StaticBatterySmoothingPolicy
    from repro.sim.engine import SimulationEngine
    from repro.workloads.spark import SparkJob

    efficiency = float(params["efficiency"])
    floor = float(params["floor"])
    days = int(params["days"])
    battery = Battery(
        BatteryConfig(
            capacity_wh=15.0,
            empty_soc_fraction=floor,
            charge_efficiency=efficiency,
            discharge_efficiency=efficiency,
            initial_soc_fraction=max(0.5, floor + 0.2),
        )
    )
    solar = SolarArrayEmulator(
        SolarConfig(peak_power_w=14.0),
        SolarTrace(days=days, seed=int(params["seed"])),
    )
    plant = PhysicalEnergySystem(battery=battery, solar=solar)
    platform = ContainerOrchestrationPlatform(ClusterConfig(num_servers=8))
    carbon = CarbonIntensityService(
        CarbonServiceConfig(region="constant"),
        trace=constant_trace(200.0, days=days),
    )
    ecovisor = Ecovisor(plant, platform, carbon, EcovisorConfig())
    engine = SimulationEngine(ecovisor, SimulationClock(60.0))
    job = SparkJob(name="spark", total_work_units=1e9)
    policy = StaticBatterySmoothingPolicy(6, 1.25)
    engine.add_application(
        job,
        ShareConfig(solar_fraction=1.0, battery_fraction=1.0, grid_power_w=0.0),
        policy,
    )
    engine.run(days * 24 * 60)
    account = ecovisor.ledger.account("spark")
    return {
        "progress_units": float(job.progress_units),
        "battery_wh": float(account.battery_wh),
        "solar_wh": float(account.solar_wh),
        "curtailed_wh": float(account.curtailed_wh),
    }


@register(
    "extension_market",
    description=(
        "Extension (market layer): carbon-vs-cost Pareto frontier. "
        "Sweeps electricity-price regimes (flat tariff, time-of-use, "
        "CAISO-like real-time) x wait-and-scale policies (carbon "
        "threshold, price threshold, blended carbon+cost) x the "
        "trade-off knob lambda; every run bills grid energy at the "
        "tick price through the settlement path."
    ),
    defaults={
        "seed": 2023,
        "days": 2,
        "work_units": 24000.0,
        "percentile": 35.0,
    },
    sweep={
        "regime": ("flat", "tou", "realtime"),
        "policy": ("carbon-threshold", "price-threshold", "carbon-cost"),
        "lam": (0.0, 0.5, 1.0),
    },
    tags=("extension", "market"),
)
def run_extension_market(params: Dict[str, Any]) -> Dict[str, Any]:
    """One (regime, policy, lambda) run; see ``run_market_case``."""
    from repro.analysis.figures_market import run_market_case

    return run_market_case(
        str(params["regime"]),
        str(params["policy"]),
        float(params["lam"]),
        seed=int(params["seed"]),
        days=int(params["days"]),
        work_units=float(params["work_units"]),
        percentile=float(params["percentile"]),
    )


@register(
    "regional",
    description=(
        "Regional grids (provider registry): the same policy grid run "
        "across bundled historical carbon datasets (CAISO, Ontario, "
        "Germany) with registry-resolved on-site generation (solar or "
        "wind+solar capacity-factor datasets) and day-ahead prices "
        "attached.  Fully offline; dataset checksums join the sweep "
        "provenance."
    ),
    defaults={
        "seed": 2023,
        "days": 2,
        "work_units": 200000.0,
        "percentile": 35.0,
    },
    sweep={
        "region": ("caiso-2022", "ontario-2022", "germany-2022"),
        "policy": ("agnostic", "wait-and-scale", "suspend-resume"),
        "generation": ("solar", "wind+solar"),
    },
    tags=("extension", "regional", "providers"),
)
def run_regional(params: Dict[str, Any]) -> Dict[str, Any]:
    """One (region, policy, generation) run; see ``run_regional_case``."""
    from repro.analysis.figures_regional import run_regional_case

    return run_regional_case(
        str(params["region"]),
        str(params["policy"]),
        str(params["generation"]),
        seed=int(params["seed"]),
        days=int(params["days"]),
        work_units=float(params["work_units"]),
        percentile=float(params["percentile"]),
    )


@register(
    "fleet_small",
    description=(
        "Fleet scale (50 tenants): mixed ML/Spark workloads under a "
        "mixed policy assignment on one ecovisor with solar, battery, "
        "and a real-time price signal.  The population `repro serve` "
        "runs under perfbench's serve_50 workload; all randomness derives "
        "from config_digest of the parameters (see repro.sim.fleet)."
    ),
    defaults={"seed": 2023, "apps": 50, "ticks": 240, "mix": "balanced"},
    tags=("fleet", "scale"),
)
def run_fleet_small(params: Dict[str, Any]) -> Dict[str, Any]:
    """One 50-app fleet run; see :func:`repro.sim.fleet.run_fleet`."""
    from repro.sim.fleet import run_fleet

    return run_fleet(params)


@register(
    "fleet_medium",
    description=(
        "Fleet scale (200 tenants): the middle population between "
        "fleet_small and fleet_large; nightly CI sweeps it with the "
        "parallel runner."
    ),
    defaults={"seed": 2023, "apps": 200, "ticks": 120, "mix": "balanced"},
    tags=("fleet", "scale"),
)
def run_fleet_medium(params: Dict[str, Any]) -> Dict[str, Any]:
    """One 200-app fleet run; see :func:`repro.sim.fleet.run_fleet`."""
    from repro.sim.fleet import run_fleet

    return run_fleet(params)


@register(
    "fleet_large",
    description=(
        "Fleet scale (1000 tenants): the stress end of the family; "
        "nightly CI tracks its throughput trend."
    ),
    defaults={"seed": 2023, "apps": 1000, "ticks": 60, "mix": "balanced"},
    tags=("fleet", "scale"),
)
def run_fleet_large(params: Dict[str, Any]) -> Dict[str, Any]:
    """One 1000-app fleet run; see :func:`repro.sim.fleet.run_fleet`."""
    from repro.sim.fleet import run_fleet

    return run_fleet(params)


@register(
    "fleet_churn",
    description=(
        "Dynamic tenancy (control plane v1.1): a static fleet plus "
        "Poisson tenant arrivals/departures and mid-run share "
        "rebalances, all scheduled deterministically from config_digest "
        "of the parameters (see repro.sim.fleet.build_churn_fleet). "
        "Metrics span evicted tenants' finalized accounts, so the "
        "sweep pins the whole lifecycle path."
    ),
    defaults={
        "seed": 2023,
        "apps": 40,
        "ticks": 120,
        "mix": "balanced",
        "admit_rate": 0.4,
        "evict_rate": 0.3,
    },
    tags=("fleet", "scale", "churn"),
)
def run_fleet_churn(params: Dict[str, Any]) -> Dict[str, Any]:
    """One churn fleet run; see :func:`repro.sim.fleet.run_fleet_churn`."""
    from repro.sim.fleet import run_fleet_churn

    return run_fleet_churn(params)


@register(
    "extension_geo",
    description=(
        "Extension (paper Section 7): geo-distributed coordination of "
        "two ecovisor sites with anti-correlated carbon, vs pinning the "
        "worker pool to either single site."
    ),
    defaults={"seed": 2023, "work_units": GEO_WORK_UNITS, "max_ticks": GEO_MAX_TICKS},
    sweep={"placement": ("geo-shifting", "east-only", "west-only")},
    tags=("extension",),
)
def run_extension_geo(params: Dict[str, Any]) -> Dict[str, Any]:
    """One placement strategy for the shared geo work pool."""
    from repro.carbon.traces import make_region_trace
    from repro.geo import GeoCoordinator
    from repro.sim.experiment import grid_environment

    base = make_region_trace("caiso", days=3, seed=int(params["seed"]))
    shifted = base.rolled(12 * 3600.0)  # out-of-phase duck curves
    placement = str(params["placement"])
    if placement == "geo-shifting":
        geo = GeoCoordinator(
            {
                "east": grid_environment(trace=base),
                "west": grid_environment(trace=shifted),
            },
            workers=8,
            migration_delay_ticks=5,
        )
    elif placement in ("east-only", "west-only"):
        trace = base if placement == "east-only" else shifted
        geo = GeoCoordinator(
            {
                "east": grid_environment(trace=trace),
                "west": grid_environment(trace=trace.rolled(1.0)),
            },
            workers=8,
            switch_threshold_g_per_kwh=1e9,  # never migrate
        )
    else:
        raise ValueError(f"unknown placement: {placement!r}")
    geo.submit(float(params["work_units"]))
    result = geo.run(int(params["max_ticks"]))
    return {
        "runtime_s": float(result.runtime_s),
        "carbon_g": float(result.total_carbon_g),
        "migrations": float(result.migrations),
        "completed": 1.0 if result.completed else 0.0,
        "work_east": float(result.work_by_site.get("east", 0.0)),
        "work_west": float(result.work_by_site.get("west", 0.0)),
    }
