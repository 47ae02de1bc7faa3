"""Recompute ``reference.json``: default-seed digests on the reference path.

    python3 perfbench/make_reference.py

Runs each fleet workload's full day with ``batched=False`` (the per-app
object path the columnar fast path is parity-tested against).  Rerun it
only when a change is meant to alter the simulated outputs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import fleetload  # noqa: E402


def main() -> int:
    seed = fleetload.DEFAULT_SEED
    table = {}
    for spec in fleetload.SPECS.values():
        table[spec.key(seed, spec.ticks)] = fleetload.reference_digest(
            spec, seed, spec.ticks
        )
        print(f"{spec.name}: {table[spec.key(seed, spec.ticks)]}", flush=True)
    with open(fleetload.REFERENCE_FILE, "w") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
