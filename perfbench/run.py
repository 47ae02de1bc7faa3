"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload steady_1k --seed 1 --seconds 10 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics (tracing off); ``--trace 1`` prints the per-layer metrics of a
traced run.  The last line of standard output is the JSON result:
``{"correct", "attempted", "failed", "metrics"}``, each metric as
``{"value", "unit"}``, with the names and units ``BENCHMARK.json``
lists.  See ``perfbench/NOTES.md`` for what each workload and metric
means.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

WORKLOADS = ("steady_1k", "churn_50", "serve_50")


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def units(trace: bool) -> dict:
    """Metric name -> unit for the metrics a run must print."""
    contract = load_contract()
    section = contract["per_layer"] if trace else contract["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    apps: int = None,
    ticks: int = None,
    references: dict = None,
) -> dict:
    """Run one workload; returns the result object (without units).

    ``apps``/``ticks`` shrink a fleet workload and ``references``
    replaces the committed digests (the self-test uses both).
    """
    if workload == "serve_50":
        import serveload

        return serveload.run(seed, seconds, trace)
    import fleetload

    spec = fleetload.sized(fleetload.SPECS[workload], apps, ticks)
    if references is None:
        references = fleetload.load_references()
    if not trace:
        return fleetload.run_timed(spec, seed, seconds, references)
    import serveload

    result = fleetload.run_traced(spec, seed, seconds, references)
    # The fleet workloads run no gateway: its stages do no work here.
    result["metrics"].update(dict.fromkeys(serveload.GATEWAY_METRICS, 0.0))
    return result


def with_units(result: dict, trace: bool) -> dict:
    """Attach units, in table order; a missing metric is an error."""
    expected = units(trace)
    missing = sorted(set(expected) - set(result["metrics"]))
    if missing:
        raise RuntimeError(f"workload did not report: {', '.join(missing)}")
    return {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(result["metrics"][name]), "unit": unit}
            for name, unit in expected.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind normally, so every server started gets stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    trace = bool(args.trace)
    result = run(args.workload, args.seed, args.seconds, trace)
    raw = result.pop("raw", {})
    result = with_units(result, trace)
    for name, metric in result["metrics"].items():
        print(f"# {name:40s} {metric['value']:14.6g} {metric['unit']}")
    for name, value in raw.items():
        print(f"# this host: {name:29s} {value:14.6g}")
    print(f"# attempted {result['attempted']}, failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
