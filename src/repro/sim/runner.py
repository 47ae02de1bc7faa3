"""Parallel experiment runner for registered scenarios.

Executes the scenario matrices produced by :mod:`repro.sim.scenarios`
across worker processes (``concurrent.futures.ProcessPoolExecutor``),
with a serial fallback used for determinism tests and debugging.  One
sweep yields one :class:`SweepResult` — a tidy results table with
per-scenario provenance (seed, config hash, wall time, worker pid).

Guarantees:

- **Determinism** — ``SweepResult.table()`` and ``metrics_json()`` are
  byte-identical between serial (``jobs<=1``) and parallel (``jobs>=2``)
  execution of the same specs: rows are ordered by spec index, and
  volatile provenance (wall time, pid) is excluded from the table.
- **Failure isolation** — an exception inside one scenario run is caught
  *inside the worker* and recorded as a failed row; it never kills the
  sweep or the other runs.  A worker process dying outright (e.g. OOM)
  is coarser: the executor marks the rows in flight on the broken pool
  as failed (``"worker failed: ..."``) but the sweep still returns a
  complete table rather than raising.
- **Pickling constraints** — only :class:`~repro.sim.scenarios.ScenarioSpec`
  (plain names + parameter values) and flat metric dicts cross process
  boundaries; simulation objects are always built inside the worker by
  the scenario's run function.
"""

from __future__ import annotations

import concurrent.futures
import csv
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.sim.scenarios import ScenarioSpec, expand, get

#: Provenance columns leading every written table, in this order.
_PROVENANCE_COLUMNS = ("scenario", "index", "config_hash", "status", "error")

#: Environment variable consulted by :func:`default_jobs`.
JOBS_ENV_VAR = "REPRO_SWEEP_JOBS"


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of one scenario run, successful or failed.

    ``metrics`` is the run function's flat metric dict (empty on
    failure); ``error`` is ``"ExceptionType: message"`` on failure.
    ``wall_time_s`` and ``worker_pid`` are provenance only — they vary
    between runs and are deliberately excluded from the deterministic
    table.
    """

    spec: ScenarioSpec
    status: str  # "ok" | "error"
    metrics: Dict[str, Any] = field(default_factory=dict)
    error: str = ""
    wall_time_s: float = 0.0
    worker_pid: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class SweepResult:
    """An ordered collection of :class:`ScenarioResult` rows for one sweep."""

    def __init__(self, scenario: str, results: Sequence[ScenarioResult], jobs: int):
        self.scenario = scenario
        self.results: List[ScenarioResult] = sorted(
            results, key=lambda r: r.spec.index
        )
        self.jobs = jobs

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def failures(self) -> List[ScenarioResult]:
        """The failed rows (empty when the whole sweep succeeded)."""
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures()

    def table(self) -> List[Dict[str, Any]]:
        """The tidy results table: one flat dict per run, in matrix order.

        Each row carries provenance columns (``scenario``, ``index``,
        ``config_hash``, ``status``, ``error``), then the run's
        parameters, then its metrics.  Parameter and metric names are
        assumed disjoint (the catalog keeps them so).  The table is
        deterministic: identical for serial and parallel execution.
        """
        rows = []
        for result in self.results:
            row: Dict[str, Any] = {
                "scenario": result.spec.scenario,
                "index": result.spec.index,
                "config_hash": result.spec.config_hash,
                "status": result.status,
                "error": result.error,
            }
            row.update(result.spec.params)
            row.update(result.metrics)
            rows.append(row)
        return rows

    def metrics_json(self) -> str:
        """Canonical JSON of :meth:`table` — byte-comparable across runs."""
        return json.dumps(self.table(), sort_keys=True, separators=(",", ":"))

    def rows_ok(self) -> List[Dict[str, Any]]:
        """The table restricted to successful rows."""
        return [row for row in self.table() if row["status"] == "ok"]

    def write(self, path: str | Path) -> Path:
        """Persist :meth:`table` to ``path``; the extension picks the format.

        ``.csv`` writes a CSV whose columns are the provenance columns
        followed by the sorted union of parameter/metric names across all
        rows (failed rows leave their metric cells empty); anything else
        writes the canonical JSON of :meth:`metrics_json`.  Both formats
        are deterministic — byte-identical between serial and parallel
        executions of the same specs — so CI can diff or cache artifacts.
        Returns the written path.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = self.table()
        if path.suffix.lower() == ".csv":
            extras = sorted(
                {key for row in rows for key in row} - set(_PROVENANCE_COLUMNS)
            )
            columns = [*_PROVENANCE_COLUMNS, *extras]
            with path.open("w", newline="") as handle:
                writer = csv.DictWriter(handle, fieldnames=columns, restval="")
                writer.writeheader()
                writer.writerows(rows)
        else:
            path.write_text(self.metrics_json() + "\n")
        return path

    def total_wall_time_s(self) -> float:
        """Sum of per-run wall times (CPU cost, not elapsed sweep time)."""
        return sum(r.wall_time_s for r in self.results)


def _ensure_catalog() -> None:
    """Make sure the built-in scenarios are registered in this process.

    Worker processes started with the ``spawn`` method import this module
    fresh; the catalog import is what (re)populates the registry there.
    """
    import repro.sim.catalog  # noqa: F401  (import registers built-ins)


def execute_spec(spec: ScenarioSpec) -> ScenarioResult:
    """Run one spec in the current process, isolating any failure.

    This is the function submitted to worker processes.  Exceptions from
    the scenario's run function are converted into an ``"error"`` row
    rather than propagated, so one crashing scenario cannot kill a sweep.
    """
    _ensure_catalog()
    started = time.perf_counter()
    try:
        scenario = get(spec.scenario)
        metrics = scenario.run(dict(spec.params))
        if not isinstance(metrics, dict):
            raise TypeError(
                f"scenario {spec.scenario!r} returned "
                f"{type(metrics).__name__}, expected a metrics dict"
            )
        return ScenarioResult(
            spec=spec,
            status="ok",
            metrics=metrics,
            wall_time_s=time.perf_counter() - started,
            worker_pid=os.getpid(),
        )
    except Exception as exc:  # noqa: BLE001 — failure isolation by design
        return ScenarioResult(
            spec=spec,
            status="error",
            error=f"{type(exc).__name__}: {exc}",
            wall_time_s=time.perf_counter() - started,
            worker_pid=os.getpid(),
        )


def run_specs(
    specs: Sequence[ScenarioSpec], jobs: int = 1, scenario: str = ""
) -> SweepResult:
    """Execute a list of specs, serially or across worker processes.

    ``jobs <= 1`` runs in-process (the serial fallback — deterministic
    and debugger-friendly); ``jobs >= 2`` fans out over a process pool.
    Results are returned in spec-index order either way.
    """
    name = scenario or (specs[0].scenario if specs else "")
    if jobs <= 1 or len(specs) <= 1:
        # Serial fallback (also for single-spec sweeps, where a pool
        # buys nothing); report jobs=1 so consumers see the real mode.
        return SweepResult(name, [execute_spec(s) for s in specs], jobs=1)
    results: List[ScenarioResult] = []
    max_workers = min(jobs, len(specs))
    with concurrent.futures.ProcessPoolExecutor(max_workers=max_workers) as pool:
        futures = {pool.submit(execute_spec, spec): spec for spec in specs}
        for future in concurrent.futures.as_completed(futures):
            spec = futures[future]
            try:
                results.append(future.result())
            except Exception as exc:  # worker process died (not a run error)
                results.append(
                    ScenarioResult(
                        spec=spec,
                        status="error",
                        error=f"worker failed: {type(exc).__name__}: {exc}",
                    )
                )
    return SweepResult(name, results, jobs=jobs)


def run_sweep(
    scenario: str,
    overrides: Optional[Mapping[str, Any]] = None,
    jobs: int = 1,
) -> SweepResult:
    """Expand a registered scenario and execute its matrix.

    ``overrides`` follow :func:`repro.sim.scenarios.expand` semantics:
    scalars pin a parameter, lists/tuples (re)define a sweep axis.
    """
    _ensure_catalog()
    specs = expand(scenario, overrides)
    return run_specs(specs, jobs=jobs, scenario=scenario)


def default_jobs() -> int:
    """Worker count for the claims test: ``$REPRO_SWEEP_JOBS`` or min(4, cpus)."""
    env = os.environ.get(JOBS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return min(4, os.cpu_count() or 1)
