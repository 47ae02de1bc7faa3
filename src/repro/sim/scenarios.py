"""Declarative scenario registry for the experiment runner.

The paper's evaluation is a collection of parameter sweeps — carbon
traces, battery policies, solar caps, multi-tenant mixes (Figures 4-11).
This module makes those sweeps *declarative*: a scenario is registered
once as a named, parameterized spec (defaults + sweep axes + a run
function), and :func:`expand` turns it into a concrete scenario matrix
that :mod:`repro.sim.runner` executes serially or across worker
processes.

Design contract (important for parallel execution):

- A scenario's ``run`` function must be a **module-level callable** under
  ``src/`` so worker processes can import it; it takes one ``dict`` of
  parameters and returns a flat ``dict`` of JSON-serializable metrics.
  It must build every simulation object itself (factory-based
  construction) — pre-built engines/ecovisors are not picklable.
- A :class:`ScenarioSpec` carries only the scenario *name* and plain
  parameter values, so it pickles cheaply; workers re-resolve the name
  against the registry (:mod:`repro.sim.catalog` registers the built-ins
  on import).
- Given the same spec, a run function must be deterministic: all
  randomness must flow from explicit ``seed`` parameters.

The built-in scenarios live in :mod:`repro.sim.catalog`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import config_digest
from repro.core.errors import ScenarioError, UnknownScenarioError

RunFunction = Callable[[Dict[str, Any]], Dict[str, Any]]


@dataclass(frozen=True)
class Scenario:
    """One registered, parameterized experiment family.

    ``defaults`` are scalar parameters every run receives; ``sweep`` maps
    axis names to the tuple of values that axis takes.  :func:`expand`
    produces the cartesian product of all axes merged over the defaults.
    """

    name: str
    run: RunFunction
    description: str = ""
    defaults: Mapping[str, Any] = field(default_factory=dict)
    sweep: Mapping[str, Tuple[Any, ...]] = field(default_factory=dict)
    tags: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully resolved, picklable run: a scenario name + concrete params.

    ``index`` is the spec's position in its expanded matrix; the runner
    reports results in index order regardless of which worker finishes
    first, so serial and parallel sweeps produce identical tables.
    """

    scenario: str
    params: Mapping[str, Any]
    index: int = 0

    @property
    def seed(self) -> Optional[int]:
        """The spec's seed parameter, if the scenario defines one."""
        seed = self.params.get("seed")
        return None if seed is None else int(seed)

    @property
    def config_hash(self) -> str:
        """Stable digest of (scenario, params) — run provenance.

        When any parameter names a registered dataset (directly or via a
        generation spec), the dataset identities *and checksums* join
        the digest payload: two runs hash identically only if they read
        identical data bytes.  Specs without dataset references keep
        their pre-provider hashes (the ``datasets`` key is omitted).
        """
        payload: Dict[str, Any] = {
            "scenario": self.scenario,
            "params": dict(self.params),
        }
        datasets = self.dataset_provenance
        if datasets:
            payload["datasets"] = datasets
        return config_digest(payload)

    @property
    def dataset_provenance(self) -> Dict[str, Dict[str, str]]:
        """Dataset name + sha256 for each param naming a bundled dataset."""
        from repro.providers.registry import dataset_provenance

        return dataset_provenance(self.params)

    def label(self) -> str:
        """Compact human-readable label, e.g. ``smoke[policy=agnostic]``."""
        inner = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return f"{self.scenario}[{inner}]"


_REGISTRY: Dict[str, Scenario] = {}


def register(
    name: str,
    *,
    description: str = "",
    defaults: Optional[Mapping[str, Any]] = None,
    sweep: Optional[Mapping[str, Sequence[Any]]] = None,
    tags: Sequence[str] = (),
) -> Callable[[RunFunction], RunFunction]:
    """Decorator: register a module-level run function as a scenario.

    Raises :class:`ScenarioError` if ``name`` is already taken or a sweep
    axis shadows a default (an axis value always wins, so the overlap is
    a definition bug).
    """

    def decorator(fn: RunFunction) -> RunFunction:
        if name in _REGISTRY:
            raise ScenarioError(f"scenario already registered: {name!r}")
        axes = {k: tuple(v) for k, v in (sweep or {}).items()}
        for axis, values in axes.items():
            if not values:
                raise ScenarioError(f"sweep axis {axis!r} has no values")
        overlap = set(axes) & set(defaults or {})
        if overlap:
            raise ScenarioError(
                f"sweep axes shadow defaults: {sorted(overlap)}"
            )
        _REGISTRY[name] = Scenario(
            name=name,
            run=fn,
            description=description,
            defaults=dict(defaults or {}),
            sweep=axes,
            tags=tuple(tags),
        )
        return fn

    return decorator


def unregister(name: str) -> None:
    """Remove a scenario (test hygiene; built-ins normally stay put)."""
    _REGISTRY.pop(name, None)


def get(name: str) -> Scenario:
    """Look up a registered scenario; raises :class:`UnknownScenarioError`."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownScenarioError(name) from None


def names() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


def expand(
    name: str, overrides: Optional[Mapping[str, Any]] = None
) -> List[ScenarioSpec]:
    """Expand a scenario (with overrides) into its concrete run matrix.

    Overrides replace parameters by name: a scalar collapses a sweep axis
    to one value (or replaces a default); a list/tuple value *becomes* a
    sweep axis.  Unknown parameter names raise :class:`ScenarioError` so
    typos fail loudly instead of silently sweeping nothing.

    The expansion order is deterministic: axes iterate in registration
    order, later axes varying fastest (``itertools.product`` order), and
    each spec records its matrix ``index``.
    """
    scenario = get(name)
    params: Dict[str, Any] = dict(scenario.defaults)
    axes: Dict[str, Tuple[Any, ...]] = dict(scenario.sweep)
    known = {*params, *axes}
    for key, value in (overrides or {}).items():
        if key not in known:
            raise ScenarioError(
                f"scenario {name!r} has no parameter {key!r}; "
                f"known parameters: {sorted(known)}"
            )
        if isinstance(value, (list, tuple)):
            if not value:
                raise ScenarioError(f"override axis {key!r} has no values")
            axes[key] = tuple(value)
            params.pop(key, None)
        else:
            axes.pop(key, None)
            params[key] = value
    axis_names = list(axes)
    specs: List[ScenarioSpec] = []
    for index, combo in enumerate(
        itertools.product(*(axes[k] for k in axis_names))
    ):
        run_params = dict(params)
        run_params.update(zip(axis_names, combo))
        specs.append(ScenarioSpec(scenario=name, params=run_params, index=index))
    return specs


def describe(name: str) -> str:
    """One-paragraph plain-text description of a scenario's parameter space."""
    scenario = get(name)
    lines = [f"{scenario.name}: {scenario.description or '(no description)'}"]
    if scenario.defaults:
        pairs = ", ".join(f"{k}={v}" for k, v in sorted(scenario.defaults.items()))
        lines.append(f"  defaults: {pairs}")
    for axis, values in scenario.sweep.items():
        lines.append(f"  axis {axis}: {list(values)}")
    lines.append(f"  matrix size: {matrix_size(name)}")
    return "\n".join(lines)


def matrix_size(name: str) -> int:
    """Number of runs :func:`expand` produces with no overrides."""
    scenario = get(name)
    size = 1
    for values in scenario.sweep.values():
        size *= len(values)
    return size
