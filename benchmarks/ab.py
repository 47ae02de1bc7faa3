"""Interleaved A/B runs of perfbench: the working tree against a git revision.

    python3 benchmarks/ab.py BASE [WORKLOAD ...]

Run from a git checkout.  BASE is exported with ``git archive``, and this
tree's ``perfbench/`` and ``BENCHMARK.json`` are copied over the export
apart from ``perfbench/reference.json``: the two sides run one harness,
and each checks its outputs against its own reference digests.  Each
workload (by
default every one ``BENCHMARK.json`` lists) runs ``PAIRS`` pairs of
``perfbench/run.py --seed 2023 --seconds <run_seconds> --trace 0``,
alternating which side goes first, because the host's speed drifts over
minutes by more than any bound.  The table gives each side's median and
quartiles, the pairs the change won (ties count for neither side) and a
verdict per end-to-end metric:

- **worse**: the change's median is worse than the parent's by more than
  the metric's bound, taken as a fraction of the parent's median;
- **unresolved**: the parent's interquartile range exceeds that bound, so
  its runs cannot tell; **better** instead when every change run reads
  better than every parent run;
- **better**: the change won at least nine tenths of the pairs and the
  medians differ by more than the parent's interquartile range;
- **unchanged**: otherwise.

Exits 1 on any worse verdict, or a larger share of failed operations than
the parent's on a workload.  A run prints ``correct: false`` exactly when
one of its operations failed, and an episode whose digest differs from
its side's reference counts as one, so that rule also judges the
outputs: a change that breaks what its parent reproduces fails it.  On a
host where neither side reproduces its digests, both fail alike and the
gate passes; every incorrect run is noted under the table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: Pairs per workload: the fewest that can show nine tenths won.
PAIRS = 10
SEED = 2023


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile (linear interpolation)."""
    q1, q2, q3 = np.percentile(np.asarray(values, dtype=float), (25, 50, 75))
    return float(q1), float(q2), float(q3)


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> str:
    """The verdict on one metric; ``parent[i]`` ran beside ``change[i]``."""
    sign = 1.0 if better == "higher" else -1.0
    p1, parent_median, p3 = quartiles(parent)
    gain = sign * (quartiles(change)[1] - parent_median)
    limit = bound * parent_median
    if -gain > limit:
        return "worse"
    if p3 - p1 > limit:
        every = min(sign * c for c in change) > max(sign * p for p in parent)
        return "better" if every else "unresolved"
    if 10 * wins(parent, change, better) >= 9 * len(parent) and gain > p3 - p1:
        return "better"
    return "unchanged"


def wins(parent: Sequence[float], change: Sequence[float], better: str) -> int:
    """Pairs in which the change reads better; a tie counts for neither."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def failed_share(runs: Sequence[dict]) -> float:
    """Failed operations over attempted ones, across ``runs``."""
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def compare(
    workload: str, parent: List[dict], change: List[dict], end_to_end: List[dict]
) -> Tuple[List[str], List[str], List[str]]:
    """Table rows for one workload's paired runs, what fails the gate, and
    notes on incorrect runs.

    Each run is ``perfbench/run.py``'s JSON result.
    """
    rows, problems, notes = [], [], []
    label = f"{workload} ({len(parent)})"

    def cell(values: List[float]) -> str:
        q1, q2, q3 = quartiles(values)
        return f"{q2:.4g} ({q1:.4g}–{q3:.4g})"

    for metric in end_to_end:
        name, better = metric["name"], metric["better"]
        p = [run["metrics"][name]["value"] for run in parent]
        c = [run["metrics"][name]["value"] for run in change]
        result = verdict(p, c, better, metric["bound"])
        rows.append(
            f"| {label} | {name} | {cell(p)} | {cell(c)} "
            f"| {wins(p, c, better)}/{len(p)} | {result} |"
        )
        label = ""
        if result == "worse":
            problems.append(f"{workload}: {name} is worse")
    parent_share, change_share = failed_share(parent), failed_share(change)
    if change_share > parent_share:
        problems.append(
            f"{workload}: failed share {change_share:.3g} against the parent's {parent_share:.3g}"
        )
    for side, runs in (("parent", parent), ("change", change)):
        incorrect = sum(not run["correct"] for run in runs)
        if incorrect:
            notes.append(f"{workload}: {incorrect}/{len(runs)} {side} runs printed correct: false")
    return rows, problems, notes


def run_once(tree: Path, command: List[str], workload: str, seconds: float) -> dict:
    """One untraced perfbench run in ``tree``; returns its JSON result."""
    # Each side imports its own src/, whatever the caller's path says.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    args = ["--workload", workload, "--seed", str(SEED), "--seconds", f"{seconds:g}"]
    proc = subprocess.run(
        command + args + ["--trace", "0"], cwd=tree, env=env, capture_output=True, text=True
    )
    if proc.returncode:
        raise SystemExit(
            f"{workload} in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def overlay(source: Path, tree: Path) -> None:
    """Copy ``source``'s benchmark over ``tree``, keeping ``tree``'s own
    ``perfbench/reference.json`` where it has one.

    A change that regenerates the reference digests is checked against
    its new ones, and its parent against the ones it was committed with.
    """
    reference = tree / "perfbench" / "reference.json"
    own = reference.read_bytes() if reference.exists() else None
    shutil.rmtree(tree / "perfbench", ignore_errors=True)
    shutil.copytree(
        source / "perfbench",
        tree / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    shutil.copy2(source / "BENCHMARK.json", tree / "BENCHMARK.json")
    if own is not None:
        reference.write_bytes(own)


def export(base: str, into: Path) -> None:
    """``base`` as committed, with this tree's benchmark over it."""
    tar = into / "base.tar"
    subprocess.run(["git", "archive", "-o", str(tar), base], cwd=ROOT, check=True)
    tree = into / "tree"
    tree.mkdir()
    subprocess.run(["tar", "-xf", str(tar), "-C", str(tree)], check=True)
    overlay(ROOT, tree)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision to compare the working tree against")
    parser.add_argument("workloads", nargs="*", help="default: every workload")
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in contract["workloads"]]
    unknown = sorted(set(args.workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; known: {', '.join(known)}")
    revision = subprocess.run(
        ["git", "rev-parse", "--short", "--verify", f"{args.base}^{{commit}}"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if revision.returncode:
        parser.error(f"{args.base} names no commit")
    seconds = contract["run_seconds"]
    rows: List[str] = []
    problems: List[str] = []
    notes: List[str] = []
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        export(args.base, Path(tmp))
        trees = {"parent": Path(tmp) / "tree", "change": ROOT}
        for workload in args.workloads or known:
            runs: Dict[str, List[dict]] = {"parent": [], "change": []}
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    run = run_once(trees[side], contract["command"], workload, seconds)
                    runs[side].append(run)
                    print(
                        f"{workload} pair {i + 1}/{PAIRS} {side}: "
                        f"ticks_per_s {run['metrics']['ticks_per_s']['value']:.4g}",
                        file=sys.stderr,
                        flush=True,
                    )
            more_rows, more_problems, more_notes = compare(
                workload, runs["parent"], runs["change"], contract["end_to_end"]
            )
            rows += more_rows
            problems += more_problems
            notes += more_notes
    print(
        f"A/B, perfbench/run.py --seed {SEED} --seconds {seconds:g} --trace 0; "
        f"parent {args.base} ({revision.stdout.strip()}), change the working tree; "
        "medians (quartiles), and the pairs in which the change reads better:\n"
    )
    print("| workload (pairs) | metric | parent | change | better | verdict |")
    print("|---|---|---|---|---|---|")
    print("\n".join(rows))
    for note in notes:
        print(f"NOTE: {note}")
    for problem in problems:
        print(f"FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
