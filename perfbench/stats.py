"""Order statistics and the host-speed probe shared by the workloads."""

from __future__ import annotations

from time import perf_counter
from typing import Sequence

import numpy as np


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 when empty."""
    if not len(values):
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


#: Iterations of the probe loop (about 0.5 ms of interpreter work).
PROBE_LOOPS = 4000


def host_probe() -> float:
    """Seconds a fixed allocation-free interpreter loop takes right now.

    Creates no container objects, so it never triggers the collector.
    """
    start = perf_counter()
    k, x = 0, 0.0
    for i in range(PROBE_LOOPS):
        k = (k * 31 + i) & 0xFFFF
        x += k * 0.5
    return perf_counter() - start
