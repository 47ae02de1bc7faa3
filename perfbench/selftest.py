"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/selftest.py -q

Checks that every workload prints every metric with its unit, that the
fleet layers' self times partition the tick wall time, that tracing
leaves no wrapper behind, that ticks run beside another thread fail,
and that a corrupted reference digest fails the output check.
"""

from __future__ import annotations

import gc
import importlib
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import fleetload  # noqa: E402
import run  # noqa: E402
import traced_serve  # noqa: E402
from spans import Tracer  # noqa: E402

TINY = {"apps": 24, "ticks": 40}
FLEETS = ("steady_1k", "churn_50")


def _fleet(workload: str, trace: bool, references=None) -> dict:
    return run.run(workload, 7, 0.5, trace, references=references or {}, **TINY)


@pytest.mark.parametrize("workload", FLEETS)
@pytest.mark.parametrize("trace", [False, True])
def test_fleet_prints_every_metric_with_unit(workload, trace):
    result = run.with_units(_fleet(workload, trace), trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    units = run.units(trace)
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", FLEETS)
def test_layers_partition_the_tick(workload):
    metrics = _fleet(workload, True)["metrics"]
    layers = list(fleetload.FLEET_LAYERS) + [fleetload.OTHER_LAYER]
    terms = [metrics[f"{layer}.self_ms"] for layer in layers]
    terms.append(metrics["gc.pause_ms"])
    assert min(terms) >= 0.0
    assert sum(terms) == pytest.approx(metrics["sim.engine.tick_ms"], rel=1e-9)
    assert sum(metrics[f"{layer}.share"] for layer in layers) <= 1.0 + 1e-9


def _targets():
    for targets in fleetload.FLEET_LAYERS.values():
        for module, cls, method in targets:
            owner = getattr(importlib.import_module(module), cls)
            yield owner, method, owner.__dict__[method]


def test_traced_run_leaves_no_wrapper():
    before = list(_targets())
    callbacks = list(gc.callbacks)
    _fleet("steady_1k", True)
    for owner, method, original in before:
        assert owner.__dict__[method] is original, f"{owner.__name__}.{method}"
    assert gc.callbacks == callbacks


def test_gateway_wrappers_uninstall():
    import asyncio

    import repro.gateway.server as gserver
    from repro.gateway.driver import TickDriver

    def attrs():
        return (gserver.read_request, asyncio.StreamWriter.write,
                gserver.GatewayServer.__dict__["run_on_writer"],
                TickDriver.__dict__["_step_on_writer"])

    before = attrs()
    tracer = Tracer()
    traced_serve.install_ticks(tracer, detail=True)
    traced_serve.install(tracer)
    assert all(a is not b for a, b in zip(attrs(), before))
    tracer.uninstall()
    assert attrs() == before


def test_ticks_beside_a_thread_fail():
    stop = threading.Event()
    worker = threading.Thread(target=stop.wait)
    worker.start()
    try:
        result = _fleet("churn_50", False)
    finally:
        stop.set()
        worker.join()
    assert not result["correct"]
    assert result["failed"] >= 1


@pytest.mark.parametrize("workload", FLEETS)
def test_corrupted_reference_fails(workload):
    spec = fleetload.sized(fleetload.SPECS[workload], TINY["apps"], TINY["ticks"])
    corrupt = {spec.key(7, spec.check_ticks): "0" * 64}
    result = _fleet(workload, False, references=corrupt)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_reference_table_covers_default_seed():
    table = fleetload.load_references()
    for spec in fleetload.SPECS.values():
        assert spec.key(fleetload.DEFAULT_SEED, spec.ticks) in table


@pytest.mark.parametrize("trace", ["0", "1"])
def test_serve_prints_every_metric_with_unit(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "serve_50",
         "--seed", "3", "--seconds", "1", "--trace", trace],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = run.units(trace == "1")
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
