#!/usr/bin/env python3
"""Carbon-aware ML training: suspend/resume vs Wait&Scale (paper §5.1).

Runs the paper's Figure 4a comparison (the ``fig04a_ml_training``
scenario) at reduced repetition count: a synchronous-SGD training job
under a carbon-agnostic policy, the WaitAWhile-style system-level
suspend/resume policy, and the application-specific Wait&Scale policy
at 2x and 3x.

Run:  python examples/carbon_aware_training.py
"""

from repro.sim.runner import run_sweep


def main() -> None:
    rows = run_sweep("fig04a_ml_training", overrides={"reps": 4}).rows_ok()
    base = rows[0]
    print("ML training under carbon policies (CAISO-like trace, 4 arrivals)\n")
    print(f"{'policy':16s} {'runtime':>10s} {'vs agnostic':>12s} "
          f"{'carbon':>9s} {'vs agnostic':>12s}")
    for row in rows:
        carbon_change = (row["mean_carbon_g"] - base["mean_carbon_g"]) / base["mean_carbon_g"]
        print(
            f"{row['policy']:16s} {row['mean_runtime_s'] / 3600:8.2f} h "
            f"{row['mean_runtime_s'] / base['mean_runtime_s']:10.2f} x "
            f"{row['mean_carbon_g']:7.3f} g {carbon_change * 100:+10.1f} %"
        )
    print(
        "\nTakeaway: Wait&Scale(2x) recovers most of suspend/resume's carbon\n"
        "reduction at a far lower runtime penalty; 3x pays extra carbon for\n"
        "little speedup because synchronization overhead bites (paper §5.1.2)."
    )


if __name__ == "__main__":
    main()
