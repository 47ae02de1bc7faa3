"""Metric helpers shared by the per-figure analysis modules."""

from __future__ import annotations

from typing import Any, Dict, Mapping, Sequence

from repro.core.units import JOULES_PER_WH


def pivot_rows(
    rows: Sequence[Mapping[str, Any]], index_key: str, column_key: str
) -> Dict[Any, Dict[Any, Mapping[str, Any]]]:
    """Pivot a tidy sweep table into ``{index: {column: row}}``.

    Used to pair up sweep rows that differ only in one axis — e.g. the
    static vs dynamic runs at each solar percentage of a Figure 10 sweep.
    Raises ``ValueError`` on duplicate (index, column) cells, which would
    silently drop data.
    """
    pivoted: Dict[Any, Dict[Any, Mapping[str, Any]]] = {}
    for row in rows:
        index = row[index_key]
        column = row[column_key]
        cell = pivoted.setdefault(index, {})
        if column in cell:
            raise ValueError(
                f"duplicate cell in pivot: {index_key}={index!r}, "
                f"{column_key}={column!r}"
            )
        cell[column] = row
    return pivoted


def runtime_improvement_pct(baseline_s: float, improved_s: float) -> float:
    """Percent runtime reduction of ``improved_s`` vs ``baseline_s``."""
    if baseline_s <= 0:
        return 0.0
    return (baseline_s - improved_s) / baseline_s * 100.0


def energy_efficiency_per_joule(work_units: float, energy_wh: float) -> float:
    """Work per joule — the paper's 'Energy Efficiency (1/joules)' axis."""
    if energy_wh <= 0:
        return 0.0
    return work_units / (energy_wh * JOULES_PER_WH)
