"""Fleet-scale scenario family: many small tenants on one ecovisor.

The paper's evaluation multiplexes a handful of applications; the
ROADMAP north star is a virtualization layer that stays cheap under
*fleet-scale* tenant counts (hundreds to a thousand applications per
ecovisor, the regime "Enabling Sustainable Clouds" frames as
per-application energy multiplexing).  This module builds those
fleets deterministically:

- ``build_fleet(params)`` wires one ecovisor + engine with ``apps``
  registered applications, a mixed workload population (ML training and
  Spark batch jobs of varying sizes) and a mixed policy assignment
  (carbon-agnostic, Wait&Scale, suspend/resume), with a subset of
  tenants holding solar and battery shares and a real-time price signal
  attached so the full settlement/billing path is exercised.
- ``run_fleet(params)`` runs the fleet for ``ticks`` and returns the
  flat metric dict the scenario registry expects.

Determinism contract (the runner executes fleets across worker
processes): **every random choice flows from the spec parameters via
``config_digest``** — the per-fleet root seed is the SHA-256 digest of
the parameter dict, and each application derives its own child RNG from
``(root_seed, app_index)``.  Two processes expanding the same spec
therefore build bit-identical fleets, which is what makes
``repro sweep fleet_* --jobs N`` byte-identical serial vs parallel.

The registered scenarios (see :mod:`repro.sim.catalog`) are
``fleet_small`` (50 apps, the population perfbench's serve_50 workload
serves), ``fleet_medium`` (200 apps), ``fleet_large`` (1000 apps), and
``fleet_churn`` — a dynamic-tenancy fleet where, on top of the static
population, tenants arrive and depart mid-run on a digest-seeded Poisson
schedule (``build_churn_fleet``), exercising the
control plane's ``admit_app``/``set_share``/``evict_app`` path at scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

from repro.core.config import config_digest

#: Policy mixes: relative weights of (agnostic, wait-and-scale,
#: suspend-resume) in the tenant population.
POLICY_MIXES: Dict[str, tuple] = {
    "balanced": (1.0, 1.0, 1.0),
    "carbon": (1.0, 2.0, 2.0),
    "agnostic": (1.0, 0.0, 0.0),
}

#: Every third tenant holds a solar + battery share (the others are
#: grid-only), so both the battery and the zero-battery snapshot paths
#: stay hot in every fleet.
SHARED_PLANT_STRIDE = 3

#: The parameters that define a fleet's population.  The root seed is
#: derived from exactly these, so harness-only knobs (the benchmark's
#: ``batched`` toggle) never change which fleet gets built.
FLEET_PARAM_KEYS = ("apps", "mix", "seed", "ticks")


@dataclass
class FleetEnvironment:
    """One fully wired fleet, plus the handles benchmarks need."""

    engine: Any
    ecovisor: Any
    applications: List[Any]
    num_containers: int


def fleet_root_seed(params: Mapping[str, Any]) -> int:
    """The fleet's root RNG seed: the digest of its full parameter dict.

    Using ``config_digest`` (SHA-256 over canonical JSON) rather than
    ``hash()`` or an ad-hoc combination means the seed is stable across
    processes and Python versions — the property the serial-vs-parallel
    sweep parity of the fleet family rests on.
    """
    population = {k: params[k] for k in FLEET_PARAM_KEYS if k in params}
    return int(config_digest(population, length=16), 16)


def build_fleet(params: Mapping[str, Any]) -> FleetEnvironment:
    """Construct a fleet engine from plain parameters (worker-safe)."""
    from repro.carbon.traces import make_region_trace
    from repro.core.config import (
        BatteryConfig,
        ClusterConfig,
        ServerConfig,
        ShareConfig,
        SolarConfig,
    )
    from repro.energy.battery import Battery
    from repro.energy.grid import GridConnection
    from repro.energy.solar import SolarArrayEmulator, SolarTrace
    from repro.energy.system import PhysicalEnergySystem
    from repro.market.prices import make_price_trace
    from repro.policies import (
        CarbonAgnosticPolicy,
        SuspendResumePolicy,
        WaitAndScalePolicy,
    )
    from repro.sim.experiment import _wire
    from repro.workloads.mltrain import MLTrainingJob
    from repro.workloads.spark import SparkJob

    import numpy as np

    num_apps = int(params["apps"])
    ticks = int(params["ticks"])
    mix = str(params.get("mix", "balanced"))
    if num_apps <= 0:
        raise ValueError(f"apps must be positive, got {num_apps}")
    if mix not in POLICY_MIXES:
        known = ", ".join(sorted(POLICY_MIXES))
        raise ValueError(f"unknown policy mix {mix!r}; known mixes: {known}")
    root_seed = fleet_root_seed(params)
    trace_seed = int(params.get("seed", 2023))
    days = max(1, math.ceil(ticks * 60.0 / 86400.0))

    trace = make_region_trace("caiso", days=days, seed=trace_seed)
    price_trace = make_price_trace("realtime", days=days, seed=trace_seed)
    solar = SolarArrayEmulator(
        SolarConfig(peak_power_w=max(4.0 * num_apps, 10.0)),
        SolarTrace(days=days, seed=trace_seed),
    )
    battery = Battery(BatteryConfig(capacity_wh=max(10.0 * num_apps, 50.0)))
    plant = PhysicalEnergySystem(
        grid=GridConnection(), battery=battery, solar=solar
    )
    # One 4-core server per tenant: enough headroom for every policy's
    # maximum worker pool (Wait&Scale tops out at 2 workers x 1 core).
    cluster = ClusterConfig(num_servers=num_apps, server=ServerConfig())
    env = _wire(plant, trace, cluster, tick_interval_s=60.0, price_trace=price_trace)

    shared = [i for i in range(num_apps) if i % SHARED_PLANT_STRIDE == 0]
    shared_fraction = 0.9 / len(shared) if shared else 0.0
    weights = np.asarray(POLICY_MIXES[mix], dtype=float)
    weights = weights / weights.sum()
    threshold_window_s = min(trace.duration_s, 48 * 3600.0)

    applications: List[Any] = []
    num_containers = 0
    for index in range(num_apps):
        rng = np.random.default_rng([root_seed, index])
        name = f"fleet-{index:04d}"
        # Work sized so a deterministic slice of the fleet completes
        # mid-run and the rest stays busy to the last tick.
        work_units = float(rng.uniform(0.4, 2.5)) * ticks * 60.0
        if rng.random() < 0.5:
            app = MLTrainingJob(name=name, total_work_units=work_units)
        else:
            app = SparkJob(name=name, total_work_units=work_units)
        kind = int(rng.choice(3, p=weights))
        if kind == 0:
            policy = CarbonAgnosticPolicy(workers=1)
        else:
            percentile = float(rng.uniform(25.0, 45.0))
            threshold = trace.percentile(percentile, 0.0, threshold_window_s)
            if kind == 1:
                policy = WaitAndScalePolicy(threshold, 1, 2.0)
            else:
                policy = SuspendResumePolicy(threshold, 1)
        if index in shared:
            share = ShareConfig(
                solar_fraction=shared_fraction,
                battery_fraction=shared_fraction,
                grid_power_w=float("inf"),
            )
        else:
            share = ShareConfig(grid_power_w=float("inf"))
        env.engine.add_application(app, share, policy)
        applications.append(app)
    if "batched" in params:
        env.engine.batched = bool(params["batched"])
    num_containers = len(env.platform.containers())
    return FleetEnvironment(
        engine=env.engine,
        ecovisor=env.ecovisor,
        applications=applications,
        num_containers=num_containers,
    )


def run_fleet(params: Dict[str, Any]) -> Dict[str, Any]:
    """Run one fleet to completion of its tick budget; return metrics."""
    fleet = build_fleet(params)
    executed = fleet.engine.run(int(params["ticks"]))
    ledger = fleet.ecovisor.ledger
    completed = sum(1 for app in fleet.applications if app.is_complete)
    progress = [
        app.progress_fraction
        for app in fleet.applications
        if hasattr(app, "progress_fraction")
    ]
    return {
        "ticks_executed": float(executed),
        "apps": float(len(fleet.applications)),
        "containers": float(fleet.num_containers),
        "completed_jobs": float(completed),
        "mean_progress": float(sum(progress) / len(progress)) if progress else 0.0,
        "energy_wh": float(ledger.total_energy_wh()),
        "carbon_g": float(ledger.total_carbon_g()),
        "cost_usd": float(ledger.total_cost_usd()),
    }


# ----------------------------------------------------------------------
# Dynamic tenancy: the fleet_churn scenario family
# ----------------------------------------------------------------------

#: Parameters defining a churn fleet's population *and* its schedule.
#: The static base population still derives from :data:`FLEET_PARAM_KEYS`
#: (so the initial fleet matches the static family bit-for-bit); the
#: schedule RNG mixes in the churn rates as well.
CHURN_PARAM_KEYS = ("apps", "mix", "seed", "ticks", "admit_rate", "evict_rate")

#: Solar/battery fraction granted to each dynamic tenant that wins a
#: share, and the cap on how many may hold one concurrently.  The static
#: fleet allocates 0.9 of solar and battery, so 8 x 0.01 stays inside
#: the 0.1 headroom with margin.
DYNAMIC_SHARE_FRACTION = 0.01
MAX_DYNAMIC_SHARES = 8


def churn_root_seed(params: Mapping[str, Any]) -> int:
    """Root seed of the churn *schedule* (digest over churn parameters)."""
    population = {k: params[k] for k in CHURN_PARAM_KEYS if k in params}
    return int(config_digest(population, length=16), 16)


def build_churn_fleet(params: Mapping[str, Any]) -> FleetEnvironment:
    """A static fleet plus a deterministic Poisson admit/evict schedule.

    Per tick, ``poisson(admit_rate)`` dynamic tenants arrive and
    ``poisson(evict_rate)`` of the still-live dynamic tenants depart
    (the static base population is never evicted, so the churn rides on
    a stable floor).  Every dynamic tenant is a small ML training job
    under a carbon-agnostic policy; tenants that win one of the
    :data:`MAX_DYNAMIC_SHARES` share slots are admitted grid-only and
    receive their solar+battery share via a scheduled ``set_share`` two
    ticks later — exercising mid-run rebalancing, not just admission.

    The whole schedule is precomputed here from ``churn_root_seed``, so
    two processes expanding the same spec build bit-identical schedules
    — the property the serial-vs-parallel sweep parity of
    ``fleet_churn`` rests on.
    """
    from repro.core.config import ShareConfig
    from repro.policies import CarbonAgnosticPolicy
    from repro.workloads.mltrain import MLTrainingJob

    import numpy as np

    fleet = build_fleet(params)
    engine = fleet.engine
    ticks = int(params["ticks"])
    admit_rate = float(params.get("admit_rate", 0.4))
    evict_rate = float(params.get("evict_rate", 0.3))
    if admit_rate < 0 or evict_rate < 0:
        raise ValueError("churn rates must be >= 0")
    rng = np.random.default_rng([churn_root_seed(params), 0xC0FFEE])

    live: List[Tuple[str, int]] = []  # (dynamic tenant, admission tick)
    shared_slots: List[str] = []  # dynamic tenants holding a share
    serial = 0
    for tick in range(1, ticks):
        # Only tenants admitted >= 3 ticks ago are evictable, so a
        # tenant's scheduled share change (admission + 2) has always
        # fired before its eviction can be drawn.
        for _ in range(int(rng.poisson(evict_rate))):
            eligible = [
                i for i, (_, admitted) in enumerate(live) if admitted <= tick - 3
            ]
            if not eligible:
                break
            victim, _ = live.pop(eligible[int(rng.integers(len(eligible)))])
            engine.schedule_eviction(tick, victim)
            if victim in shared_slots:
                shared_slots.remove(victim)
        for _ in range(int(rng.poisson(admit_rate))):
            name = f"churn-{serial:04d}"
            serial += 1
            work_units = float(rng.uniform(0.2, 1.0)) * ticks * 60.0
            app = MLTrainingJob(name=name, total_work_units=work_units)
            engine.schedule_admission(
                tick,
                app,
                ShareConfig(grid_power_w=float("inf")),
                CarbonAgnosticPolicy(workers=1),
            )
            live.append((name, tick))
            if (
                tick + 2 < ticks
                and len(shared_slots) < MAX_DYNAMIC_SHARES
                and rng.random() < 0.5
            ):
                shared_slots.append(name)
                engine.schedule_share_change(
                    tick + 2,
                    name,
                    ShareConfig(
                        solar_fraction=DYNAMIC_SHARE_FRACTION,
                        battery_fraction=DYNAMIC_SHARE_FRACTION,
                        grid_power_w=float("inf"),
                    ),
                )
    return fleet


def run_fleet_churn(params: Dict[str, Any]) -> Dict[str, Any]:
    """Run one churn fleet; returns metrics spanning evicted tenants too."""
    fleet = build_churn_fleet(params)
    engine = fleet.engine
    executed = engine.run(int(params["ticks"]))
    ledger = fleet.ecovisor.ledger
    evicted = engine.evicted_accounts
    live_apps = fleet.ecovisor.app_names()
    return {
        "ticks_executed": float(executed),
        "initial_apps": float(len(fleet.applications)),
        "final_apps": float(len(live_apps)),
        "admitted": float(len(ledger.app_names()) - len(fleet.applications)),
        "evicted": float(len(evicted)),
        "evicted_energy_wh": float(sum(a.energy_wh for a in evicted.values())),
        "evicted_carbon_g": float(sum(a.carbon_g for a in evicted.values())),
        "evicted_cost_usd": float(sum(a.cost_usd for a in evicted.values())),
        "energy_wh": float(ledger.total_energy_wh()),
        "carbon_g": float(ledger.total_carbon_g()),
        "cost_usd": float(ledger.total_cost_usd()),
    }
