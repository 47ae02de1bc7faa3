"""Fleet-scale tick-loop throughput: the repo's committed perf baseline.

Builds a fleet scenario (see :mod:`repro.sim.fleet`) and times nothing
but ``engine.run`` — the batched tick hot path: signal sampling, virtual
solar refresh, snapshot builds, policy upcalls, settlement, telemetry.
Emits a JSON record with:

- ``ticks_per_s``        — tick-loop throughput (higher is better);
- ``per_app_us_per_tick``— amortized per-application cost of one tick:
  wall time over the run's tenant-ticks (the sum of the ``cluster.apps``
  series), so a churning population is divided by its live size;
- ``peak_rss_mb``        — peak resident set size of the process;
- ``unbatched_wall_s`` / ``speedup_vs_unbatched`` — the same fleet run
  on the engine's per-app object reference path (``engine.batched =
  False``), the path the parity tests pin the production path against.

The committed baseline lives at ``benchmarks/BENCH_scale.json``.  The CI
``perf-regression`` job reruns this benchmark and **fails the build**
when measured throughput drops below ``baseline / --max-regression``
(default 1.5x); see docs/performance.md for the override protocol and
how to regenerate the baseline:

    PYTHONPATH=src python benchmarks/bench_scale.py \
        --apps 50 --ticks 200 --check benchmarks/BENCH_scale.json

    PYTHONPATH=src python benchmarks/bench_scale.py \
        --apps 200 --ticks 120 --write-baseline benchmarks/BENCH_scale.json
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict

from repro.sim.fleet import build_churn_fleet, build_fleet

SCHEMA = "bench_scale/v1"

#: Scenario families the benchmark can time.  ``fleet`` is the static
#: population; ``fleet_churn`` adds the digest-seeded Poisson
#: admit/evict schedule, timing the control plane's lifecycle path
#: (admission, share rebalancing, eviction) inside the tick loop.
SCENARIOS = ("fleet", "fleet_churn")


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux: KiB units)."""
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # macOS reports bytes
        return rss_kib / (1024.0 * 1024.0)
    return rss_kib / 1024.0


def entry_key(apps: int, ticks: int, mix: str, scenario: str = "fleet") -> str:
    base = f"apps={apps},ticks={ticks},mix={mix}"
    if scenario != "fleet":
        return f"scenario={scenario},{base}"
    return base


def time_fleet_run(
    apps: int,
    ticks: int,
    mix: str,
    seed: int,
    batched: bool,
    scenario: str = "fleet",
    profile: bool = False,
) -> Dict[str, Any]:
    """Build one fleet (static or churn) and time ``engine.run`` alone.

    With ``profile``, the engine profiler's per-phase rollup rides along
    in the returned dict (the engine profiles every tick either way).
    """
    params = {
        "apps": apps,
        "ticks": ticks,
        "seed": seed,
        "mix": mix,
        "batched": batched,
    }
    builder = build_churn_fleet if scenario == "fleet_churn" else build_fleet
    fleet = builder(params)
    started = time.perf_counter()
    executed = fleet.engine.run(ticks)
    wall_s = time.perf_counter() - started
    app_counts = fleet.ecovisor.database.series("cluster.apps").values()
    result: Dict[str, Any] = {
        "wall_s": wall_s,
        "ticks_executed": float(executed),
        "app_ticks": float(app_counts.sum()),
        "containers": float(fleet.num_containers),
    }
    if profile:
        summary = fleet.engine.profiler.summary()
        result["profile"] = {
            "phase_table": summary["phase_table"],
            "mean_tick_s": summary["mean_tick_s"],
            "p50_tick_s": summary["p50_tick_s"],
            "p99_tick_s": summary["p99_tick_s"],
            "slow_ticks_total": summary["slow_ticks_total"],
        }
    return result


def run_benchmark(
    apps: int = 200,
    ticks: int = 120,
    mix: str = "balanced",
    seed: int = 2023,
    skip_unbatched: bool = False,
    scenario: str = "fleet",
    profile: bool = False,
) -> Dict[str, Any]:
    if scenario not in SCENARIOS:
        raise SystemExit(f"unknown scenario {scenario!r}; known: {SCENARIOS}")
    batched = time_fleet_run(
        apps, ticks, mix, seed, batched=True, scenario=scenario, profile=profile
    )
    wall_s = batched["wall_s"]
    result: Dict[str, Any] = {
        "schema": SCHEMA,
        "scenario": scenario,
        "apps": apps,
        "ticks": ticks,
        "mix": mix,
        "seed": seed,
        "containers": batched["containers"],
        "wall_s": wall_s,
        "ticks_per_s": ticks / wall_s,
        "per_app_us_per_tick": wall_s / batched["app_ticks"] * 1e6,
        "peak_rss_mb": peak_rss_mb(),
    }
    if profile:
        # The phase breakdown explains *where* a regression happened,
        # not just that it happened.
        result["profile"] = batched["profile"]
    if not skip_unbatched:
        unbatched = time_fleet_run(
            apps, ticks, mix, seed, batched=False, scenario=scenario
        )
        result["unbatched_wall_s"] = unbatched["wall_s"]
        result["speedup_vs_unbatched"] = unbatched["wall_s"] / wall_s
    return result


def print_table(result: Dict[str, Any]) -> None:
    print(
        f"\n=== {result.get('scenario', 'fleet')} tick loop: "
        f"{result['apps']} apps x {result['ticks']} ticks "
        f"({result['containers']:.0f} containers, mix={result['mix']}) ==="
    )
    print(f"{'wall time':>22s}: {result['wall_s']:.3f} s")
    print(f"{'throughput':>22s}: {result['ticks_per_s']:.1f} ticks/s")
    print(f"{'per-app cost':>22s}: {result['per_app_us_per_tick']:.1f} us/app/tick")
    print(f"{'peak RSS':>22s}: {result['peak_rss_mb']:.1f} MiB")
    if "speedup_vs_unbatched" in result:
        print(
            f"{'unbatched fallback':>22s}: {result['unbatched_wall_s']:.3f} s "
            f"({result['speedup_vs_unbatched']:.2f}x slower than batched)"
        )
    if "profile" in result:
        for row in result["profile"]["phase_table"]:
            print(
                f"{row['phase']:>22s}: {row['total_s']:.3f} s "
                f"({row['share'] * 100:.1f}% of tick time)"
            )


def load_baseline(path: Path) -> Dict[str, Any]:
    if not path.exists():
        return {"schema": SCHEMA, "entries": {}}
    data = json.loads(path.read_text())
    if data.get("schema") != SCHEMA or "entries" not in data:
        raise SystemExit(f"{path}: not a {SCHEMA} baseline file")
    return data


def check_against_baseline(
    result: Dict[str, Any], path: Path, max_regression: float
) -> int:
    """Exit status 0 if within budget, 1 on regression or missing entry."""
    key = entry_key(
        result["apps"], result["ticks"], result["mix"],
        result.get("scenario", "fleet"),
    )
    baseline = load_baseline(path).get("entries", {}).get(key)
    if baseline is None:
        print(f"FAIL: no baseline entry {key!r} in {path}", file=sys.stderr)
        return 1
    floor = baseline["ticks_per_s"] / max_regression
    verdict = "ok" if result["ticks_per_s"] >= floor else "REGRESSION"
    print(
        f"\nperf gate [{key}]: measured {result['ticks_per_s']:.1f} ticks/s, "
        f"baseline {baseline['ticks_per_s']:.1f}, floor {floor:.1f} "
        f"(max regression {max_regression:.2f}x) -> {verdict}"
    )
    if verdict != "ok":
        print(
            "Throughput regressed beyond the budget. If intentional, apply "
            "the 'perf-baseline-reset' PR label and regenerate "
            "benchmarks/BENCH_scale.json (see docs/performance.md).",
            file=sys.stderr,
        )
        return 1
    return 0


def write_baseline(result: Dict[str, Any], path: Path) -> None:
    data = load_baseline(path)
    key = entry_key(
        result["apps"], result["ticks"], result["mix"],
        result.get("scenario", "fleet"),
    )
    data["entries"][key] = result
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"baseline entry {key!r} written to {path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--apps", type=int, default=200)
    parser.add_argument("--ticks", type=int, default=120)
    parser.add_argument("--mix", type=str, default="balanced")
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument(
        "--scenario",
        type=str,
        default="fleet",
        choices=SCENARIOS,
        help="fleet (static population) or fleet_churn (Poisson admit/evict)",
    )
    parser.add_argument("--out", type=str, default=None, help="JSON output path")
    parser.add_argument(
        "--check",
        type=str,
        default=None,
        help="baseline file to gate against (exit 1 on regression)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=1.5,
        help="allowed throughput slowdown vs the baseline (default 1.5x)",
    )
    parser.add_argument(
        "--write-baseline",
        type=str,
        default=None,
        help="write/update this run's entry in the given baseline file",
    )
    parser.add_argument(
        "--skip-unbatched",
        action="store_true",
        help="measure only the batched path (faster; used by the CI gate)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="record the tick profiler's phase breakdown in the JSON output",
    )
    args = parser.parse_args()
    result = run_benchmark(
        apps=args.apps,
        ticks=args.ticks,
        mix=args.mix,
        seed=args.seed,
        skip_unbatched=args.skip_unbatched,
        scenario=args.scenario,
        profile=args.profile,
    )
    print_table(result)
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")
    if args.write_baseline:
        write_baseline(result, Path(args.write_baseline))
    if args.check:
        raise SystemExit(
            check_against_baseline(result, Path(args.check), args.max_regression)
        )


if __name__ == "__main__":
    main()
