"""Result records and summaries for experiment runs.

The paper reports batch results as (carbon emissions, completion time)
pairs with standard deviations over ten runs (Figure 4).  These
dataclasses are the printable/testable form of those outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.core.units import SECONDS_PER_HOUR, sequential_sum


@dataclass(frozen=True)
class BatchRunResult:
    """One batch-job run under one policy."""

    policy_label: str
    arrival_offset_s: float
    runtime_s: float
    carbon_g: float
    energy_wh: float
    completed: bool

    @property
    def runtime_hours(self) -> float:
        return self.runtime_s / SECONDS_PER_HOUR


@dataclass(frozen=True)
class BatchSummary:
    """Mean/std across repeated runs of one policy (a Figure 4 bar)."""

    policy_label: str
    runs: int
    mean_runtime_s: float
    std_runtime_s: float
    mean_carbon_g: float
    std_carbon_g: float
    mean_energy_wh: float
    completion_rate: float

    @property
    def mean_runtime_hours(self) -> float:
        return self.mean_runtime_s / SECONDS_PER_HOUR

    def runtime_ratio_vs(self, other: "BatchSummary") -> float:
        """This policy's runtime as a multiple of ``other``'s."""
        if other.mean_runtime_s <= 0:
            return math.inf
        return self.mean_runtime_s / other.mean_runtime_s

    def carbon_change_vs(self, other: "BatchSummary") -> float:
        """Relative carbon change vs ``other`` (negative = reduction)."""
        if other.mean_carbon_g <= 0:
            return math.inf
        return (self.mean_carbon_g - other.mean_carbon_g) / other.mean_carbon_g

    def metrics(self) -> Dict[str, float]:
        """The summary as a scenario's flat metrics."""
        return {
            "mean_runtime_s": self.mean_runtime_s,
            "std_runtime_s": self.std_runtime_s,
            "mean_carbon_g": self.mean_carbon_g,
            "std_carbon_g": self.std_carbon_g,
            "mean_energy_wh": self.mean_energy_wh,
            "completion_rate": self.completion_rate,
        }


def summarize_batch(results: Sequence[BatchRunResult]) -> BatchSummary:
    """Aggregate repeated runs of one policy into a summary row."""
    if not results:
        raise ValueError("cannot summarize an empty result list")
    labels = {r.policy_label for r in results}
    if len(labels) != 1:
        raise ValueError(f"mixed policy labels in one summary: {sorted(labels)}")
    runtimes = [r.runtime_s for r in results]
    carbons = [r.carbon_g for r in results]
    energies = [r.energy_wh for r in results]
    n = len(results)
    return BatchSummary(
        policy_label=results[0].policy_label,
        runs=n,
        mean_runtime_s=_mean(runtimes),
        std_runtime_s=_std(runtimes),
        mean_carbon_g=_mean(carbons),
        std_carbon_g=_std(carbons),
        mean_energy_wh=_mean(energies),
        completion_rate=sum(1.0 for r in results if r.completed) / n,
    )


def _mean(values: Sequence[float]) -> float:
    return sequential_sum(values) / len(values)


def _std(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mu = _mean(values)
    return math.sqrt(sequential_sum((v - mu) ** 2 for v in values) / (len(values) - 1))
