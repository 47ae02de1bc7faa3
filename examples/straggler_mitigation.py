#!/usr/bin/env python3
"""Spending excess solar on straggler replicas (paper §5.4).

A barrier-synchronized 10-node parallel job with injected slow nodes
runs purely on solar.  When supply exceeds the job's maximum draw and
there is no battery to store it, the only useful move is to spend it
immediately — here, on replica tasks for detected stragglers.  Runs a
few points of the ``fig10_solar_caps`` and ``fig11_stragglers``
scenarios.

Run:  python examples/straggler_mitigation.py
"""

from repro.analysis.figures_solar import solar_cap_rows, straggler_rows
from repro.sim.runner import run_sweep


def main() -> None:
    print("Fig 10(c): static vs dynamic per-container power caps\n")
    print(f"{'solar %':>8s} {'static':>9s} {'dynamic':>9s} "
          f"{'improvement':>12s} {'work/J':>8s}")
    sweep = run_sweep("fig10_solar_caps", overrides={"solar_pct": [20.0, 50.0, 80.0]}, jobs=2)
    for row in solar_cap_rows(sweep.rows_ok()):
        print(
            f"{row['solar_pct']:7.0f}% "
            f"{row['runtime_static_s'] / 3600:7.2f} h "
            f"{row['runtime_dynamic_s'] / 3600:7.2f} h "
            f"{row['runtime_improvement_pct']:10.1f} % "
            f"{row['energy_efficiency_per_j']:8.3f}"
        )

    print("\nFig 11: replica-based straggler mitigation under excess solar\n")
    print(f"{'solar %':>8s} {'baseline':>9s} {'replicas':>9s} "
          f"{'improvement':>12s} {'work/J':>8s}")
    sweep = run_sweep("fig11_stragglers", overrides={"solar_pct": [100.0, 140.0, 180.0]}, jobs=2)
    for row in straggler_rows(sweep.rows_ok()):
        print(
            f"{row['solar_pct']:7.0f}% "
            f"{row['runtime_baseline_s'] / 3600:7.2f} h "
            f"{row['runtime_replicas_s'] / 3600:7.2f} h "
            f"{row['runtime_improvement_pct']:10.1f} % "
            f"{row['energy_efficiency_per_j']:8.3f}"
        )
    print(
        "\nTakeaway: balancing caps matters more the scarcer solar is; and\n"
        "once solar exceeds the job's draw, replicas trade energy-efficiency\n"
        "for runtime — worthwhile because the excess would be curtailed\n"
        "anyway (paper §5.4.2)."
    )


if __name__ == "__main__":
    main()
