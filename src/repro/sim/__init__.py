"""Simulation harness: engine, environments, scenarios, and the runner.

Layers inside this package:

- :mod:`repro.sim.engine` — the tick-driven simulation engine (the
  paper's Section 3.1 tick protocol).
- :mod:`repro.sim.experiment` — standard environment builders (grid-only
  and solar+battery plants) and batch-policy runners.
- :mod:`repro.sim.results` — result records and summaries.
- :mod:`repro.sim.scenarios` — the declarative scenario registry:
  named, parameterized experiment specs with sweep axes.
- :mod:`repro.sim.catalog` — the built-in scenarios (imported here so
  the registry is populated as soon as ``repro.sim`` is).
- :mod:`repro.sim.runner` — expands scenario matrices and executes them
  serially or across worker processes with deterministic results.
"""

from repro.sim.engine import SimulationEngine
from repro.sim.experiment import (
    DEFAULT_CLUSTER,
    Environment,
    UNLIMITED_GRID_SHARE,
    arrival_offsets,
    carbon_threshold,
    grid_environment,
    run_batch_policy,
    solar_battery_environment,
)
from repro.sim.results import BatchRunResult, BatchSummary, summarize_batch
from repro.sim.scenarios import Scenario, ScenarioSpec, expand, register
from repro.sim import catalog  # noqa: F401  (registers the built-in scenarios)
from repro.sim.runner import (
    ScenarioResult,
    SweepResult,
    default_jobs,
    execute_spec,
    run_specs,
    run_sweep,
)

__all__ = [
    "BatchRunResult",
    "BatchSummary",
    "DEFAULT_CLUSTER",
    "Environment",
    "Scenario",
    "ScenarioResult",
    "ScenarioSpec",
    "SimulationEngine",
    "SweepResult",
    "UNLIMITED_GRID_SHARE",
    "arrival_offsets",
    "carbon_threshold",
    "default_jobs",
    "execute_spec",
    "expand",
    "grid_environment",
    "register",
    "run_batch_policy",
    "run_specs",
    "run_sweep",
    "solar_battery_environment",
    "summarize_batch",
]
