"""Command-line interface: check the paper's claims and run scenario sweeps.

Usage::

    python -m repro claims --jobs 2      # the paper's claims, checked
    python -m repro scenarios            # the registered scenario catalog
    python -m repro routes               # the live /v1 REST route table
    python -m repro sweep smoke --jobs 2 # run a scenario matrix in parallel
    python -m repro sweep fig04a_ml_training --param reps=4
    python -m repro sweep fig10_solar_caps --jobs 4 --param solar_pct=10/50/90
    python -m repro sweep extension_market --jobs 4 --out market.csv
    python -m repro profile fleet_medium # tick-phase profile of a fleet run
    python -m repro profile fleet_large --ticks 30 --out profile.json
    python -m repro serve fleet_small --port 8090   # async API gateway
    python -m repro serve fleet_medium --port 0 --tick-interval 0.25
    python -m repro traces               # bundled signal datasets
    python -m repro traces show caiso-2022
    python -m repro traces validate      # checksum-verify every dataset

Every paper figure is one catalog scenario (``repro scenarios``).
``claims`` runs them all at their committed defaults and prints the
claims table (:mod:`repro.analysis.claims`): each row's paper value,
reproduced value and check; it exits 1 and names every row that fails.
``sweep`` expands one registered scenario's parameter matrix and
executes it across worker processes (``--jobs``), printing one tidy row
per run plus provenance (config hash, wall time).  ``--param k=v,...``
pins parameters; a ``/``-separated value list (e.g.
``solar_pct=10/50/90``) redefines a sweep axis.  ``--out PATH`` persists
the results table (CSV when PATH ends in ``.csv``, canonical JSON
otherwise) so CI can consume artifacts instead of scraping stdout.
Everything is deterministic: a parallel sweep produces byte-identical
metrics (and written tables) to the serial fallback (``--jobs 1``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Sequence


def _parse_param_value(text: str) -> Any:
    """Parse one ``--param`` value: int, float, bool, or bare string."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    return text


def parse_param_overrides(entries: Sequence[str]) -> Dict[str, Any]:
    """Parse repeated ``--param k=v[,k=v...]`` flags into runner overrides.

    A scalar value pins a parameter; a ``/``-separated list (e.g.
    ``solar_pct=10/50/90``) becomes a sweep axis.
    """
    overrides: Dict[str, Any] = {}
    for entry in entries:
        for pair in entry.split(","):
            pair = pair.strip()
            if not pair:
                continue
            if "=" not in pair:
                raise ValueError(f"--param expects k=v, got {pair!r}")
            key, _, raw = pair.partition("=")
            key = key.strip()
            if "/" in raw:
                overrides[key] = [
                    _parse_param_value(v) for v in raw.split("/") if v
                ]
            else:
                overrides[key] = _parse_param_value(raw)
    return overrides


def build_route_rows() -> List[tuple]:
    """The live ``/v1`` route table as (method, path, transport, backing).

    Built from a freshly wired REST server (routes are static — the
    ecovisor underneath is a throwaway), so the printed table can never
    drift from the code; a test pins ``docs/api_tour.md`` against it.
    The transport column marks how the gateway serves each row: ``sync``
    rows dispatch through the writer thread, ``sse`` rows upgrade to a
    Server-Sent Events stream (gateway-only; the in-process router
    answers 501 for them).
    """
    from repro.rest.server import SSE_ROUTES, EcovisorRestServer
    from repro.sim.experiment import grid_environment

    server = EcovisorRestServer(grid_environment(days=1).ecovisor)
    return [
        (
            method,
            path,
            "sse" if (method, path) in SSE_ROUTES else "sync",
            backing,
        )
        for method, path, backing in server.router.route_table()
    ]


def cmd_routes(args) -> None:
    print(
        "method  path                                          "
        "transport  backing call"
    )
    for method, path, transport, backing in build_route_rows():
        print(f"{method:7s} {path:45s} {transport:10s} {backing}")
    print("\nsse rows stream from the async gateway (`repro serve`)")


def cmd_scenarios(args) -> None:
    from repro.sim import scenarios

    print("registered scenarios:")
    for name in scenarios.names():
        scenario = scenarios.get(name)
        axes = " x ".join(
            f"{axis}({len(values)})" for axis, values in scenario.sweep.items()
        )
        size = scenarios.matrix_size(name)
        print(f"  {name:24s} {size:3d} runs  [{axes or 'no axes'}]")
        if args.verbose:
            print(f"    {scenario.description}")


def cmd_traces(args) -> int:
    """``repro traces [list|show NAME|validate]`` — the dataset registry."""
    from repro.core.errors import DatasetIntegrityError, UnknownTraceNameError
    from repro.providers.registry import (
        DATASET_INTERVAL_S,
        DATASETS,
        descriptor,
        load_samples,
        validate_all,
    )

    action = args.scenario or "list"
    if action == "list":
        print(f"bundled datasets ({len(DATASETS)}):")
        print(f"{'name':22s} {'kind':9s} {'region':9s} {'units':12s} sha256")
        for name in sorted(DATASETS):
            desc = DATASETS[name]
            print(
                f"{desc.name:22s} {desc.kind:9s} {desc.region:9s} "
                f"{desc.units:12s} {desc.sha256[:12]}…"
            )
        print("\nuse 'traces show <name>' for one dataset, "
              "'traces validate' to checksum-verify all")
        return 0
    if action == "show":
        if not args.dataset:
            raise ValueError("traces show requires a dataset name")
        desc = descriptor(args.dataset)
        samples = load_samples(desc.name)
        duration_h = len(samples) * DATASET_INTERVAL_S / 3600.0
        print(f"dataset:  {desc.name}")
        print(f"kind:     {desc.kind}")
        print(f"region:   {desc.region}")
        print(f"units:    {desc.units}")
        print(f"sha256:   {desc.sha256}")
        print(f"file:     {desc.path}")
        print(f"samples:  {len(samples)} @ {DATASET_INTERVAL_S:.0f}s "
              f"({duration_h:.1f} h)")
        print(
            f"values:   min {samples.min():.4g}  mean {samples.mean():.4g}  "
            f"max {samples.max():.4g}"
        )
        print(f"about:    {desc.description}")
        return 0
    if action == "validate":
        try:
            results = validate_all()
        except DatasetIntegrityError as exc:
            print(f"FAIL: {exc}")
            return 1
        for name, sha in sorted(results.items()):
            print(f"ok  {name:22s} sha256 {sha}")
        print(f"=== {len(results)}/{len(DATASETS)} datasets verified ===")
        return 0
    raise UnknownTraceNameError(
        "traces action", action, ("list", "show", "validate")
    )


def cmd_claims(args) -> int:
    """``repro claims``: evaluate the claims table; 1 if any row fails."""
    from repro.analysis.claims import evaluate

    report = evaluate(jobs=args.jobs)
    mode = f"{args.jobs} worker processes" if args.jobs > 1 else "serial"
    print(f"=== claims: {len(report.outcomes)} rows ({mode}) ===")
    for line in report.table():
        print(line)
    failures = report.failures()
    for line in failures:
        print(f"FAIL {line}")
    held = sum(1 for o in report.outcomes if o.ok)
    print(f"=== {held}/{len(report.outcomes)} claims hold ===")
    return 1 if failures else 0


def cmd_sweep(args) -> int:
    from repro.sim.runner import run_sweep

    overrides = parse_param_overrides(args.param or [])
    sweep = run_sweep(args.scenario, overrides=overrides, jobs=args.jobs)
    mode = f"{sweep.jobs} worker processes" if sweep.jobs > 1 else "serial"
    print(f"=== sweep {args.scenario}: {len(sweep)} runs ({mode}) ===")
    if args.out:
        written = sweep.write(args.out)
        print(f"wrote results table to {written}")
    for result in sweep:
        spec = result.spec
        params = ",".join(f"{k}={spec.params[k]}" for k in sorted(spec.params))
        status = "ok " if result.ok else "ERR"
        print(
            f"[{spec.index:3d}] {status} {spec.config_hash}  "
            f"{result.wall_time_s:6.2f}s  {params}"
        )
        if result.ok:
            metrics = ", ".join(
                f"{k}={_fmt_metric(v)}" for k, v in sorted(result.metrics.items())
            )
            print(f"      {metrics}")
        else:
            print(f"      {result.error}")
    failed = sweep.failures()
    print(
        f"=== {len(sweep) - len(failed)}/{len(sweep)} ok, "
        f"total run time {sweep.total_wall_time_s():.2f}s ==="
    )
    return 1 if failed else 0


def _fmt_metric(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _fmt_seconds(seconds: float) -> str:
    """A phase duration scaled to a readable unit."""
    if seconds >= 1.0:
        return f"{seconds:8.3f} s "
    if seconds >= 1e-3:
        return f"{seconds * 1e3:8.3f} ms"
    return f"{seconds * 1e6:8.1f} µs"


def run_profile(
    scenario_name: str, ticks: Optional[int] = None
) -> Dict[str, Any]:
    """Run one fleet scenario and report its tick profile.

    The report is what ``repro profile`` prints and ``--out`` persists:
    the profiler summary (phase table, exact ring percentiles, slow
    ticks) plus the run's wall-clock time, so the phase-sum-vs-wall
    coverage figure is part of the artifact.
    """
    from time import perf_counter

    from repro.core.errors import ScenarioError
    from repro.sim import scenarios
    from repro.sim.fleet import build_churn_fleet, build_fleet

    scenario = scenarios.get(scenario_name)
    if "fleet" not in scenario.tags:
        raise ScenarioError(
            f"'profile' runs fleet scenarios (tagged 'fleet'); "
            f"{scenario_name!r} is not one — see 'repro scenarios'"
        )
    params = dict(scenario.defaults)
    if ticks is not None:
        params["ticks"] = ticks
    builder = build_churn_fleet if "churn" in scenario.tags else build_fleet
    fleet = builder(params)
    engine = fleet.engine
    start = perf_counter()
    executed = engine.run(int(params["ticks"]))
    wall_s = perf_counter() - start
    summary = engine.profiler.summary()
    phase_sum_s = sum(row["total_s"] for row in summary["phase_table"])
    return {
        "scenario": scenario_name,
        "params": params,
        "apps": len(fleet.applications),
        "containers": fleet.num_containers,
        "ticks_executed": executed,
        "wall_s": wall_s,
        "phase_sum_s": phase_sum_s,
        # Fraction of the run's wall-clock the phase brackets account
        # for (loop overhead outside the brackets is the remainder).
        "coverage": phase_sum_s / wall_s if wall_s > 0 else 0.0,
        "ticks_per_s": executed / wall_s if wall_s > 0 else 0.0,
        "summary": summary,
    }


def cmd_profile(args) -> int:
    report = run_profile(args.scenario, ticks=args.ticks)
    summary = report["summary"]
    print(
        f"=== profile {report['scenario']}: {report['apps']} apps, "
        f"{report['ticks_executed']} ticks, {report['wall_s']:.2f}s wall "
        f"({report['ticks_per_s']:.1f} ticks/s) ==="
    )
    print(
        f"{'phase':16s} {'total':>11s} {'mean/tick':>11s} {'p50':>11s} "
        f"{'p99':>11s} {'share':>7s}"
    )
    for row in summary["phase_table"]:
        print(
            f"{row['phase']:16s} {_fmt_seconds(row['total_s'])} "
            f"{_fmt_seconds(row['mean_s'])} {_fmt_seconds(row['p50_s'])} "
            f"{_fmt_seconds(row['p99_s'])} {row['share'] * 100:6.1f}%"
        )
    print(
        f"{'tick total':16s} {_fmt_seconds(summary['total_s'])} "
        f"{_fmt_seconds(summary['mean_tick_s'])} "
        f"{_fmt_seconds(summary['p50_tick_s'])} "
        f"{_fmt_seconds(summary['p99_tick_s'])} {100.0:6.1f}%"
    )
    print(
        f"phase sum {report['phase_sum_s']:.3f}s covers "
        f"{report['coverage'] * 100:.1f}% of wall-clock"
    )
    slow = summary["slow_ticks"]
    print(f"slow ticks (> {4.0:.0f}x median): {summary['slow_ticks_total']}")
    for entry in slow[-5:]:
        worst = max(entry["phases"], key=entry["phases"].get)
        print(
            f"  tick {entry['tick_index']:5d}  "
            f"{_fmt_seconds(entry['total_s'])}  "
            f"(median {_fmt_seconds(entry['median_s'])}, "
            f"dominated by {worst})"
        )
    if args.out:
        import json

        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
        print(f"wrote profile report to {args.out}")
    return 0


def build_serve_environment(
    scenario_name: str, ticks: Optional[int] = None
) -> tuple:
    """A fleet environment for ``repro serve``: (fleet, params).

    Only fleet scenarios are servable — the gateway fronts one ecovisor
    with a live population, which is exactly what the fleet family
    builds deterministically from its parameter digest.
    """
    from repro.core.errors import ScenarioError
    from repro.sim import scenarios
    from repro.sim.fleet import build_churn_fleet, build_fleet

    scenario = scenarios.get(scenario_name)
    if "fleet" not in scenario.tags:
        raise ScenarioError(
            f"'serve' runs fleet scenarios (tagged 'fleet'); "
            f"{scenario_name!r} is not one — see 'repro scenarios'"
        )
    params = dict(scenario.defaults)
    if ticks is not None:
        params["ticks"] = ticks
    builder = build_churn_fleet if "churn" in scenario.tags else build_fleet
    return builder(params), params


def cmd_serve(args) -> int:
    """Serve a fleet scenario over the async gateway until interrupted.

    Prints one ``serving ... on http://host:port`` line once the socket
    is bound (port 0 resolves to the ephemeral port), steps the
    scenario's ticks on the gateway's writer thread, then keeps serving
    the final state until Ctrl-C.
    """
    import asyncio

    from repro.gateway import GatewayConfig, GatewayServer, TickDriver

    scenario_name = args.scenario or "fleet_small"
    fleet, params = build_serve_environment(scenario_name, ticks=args.ticks)

    async def serve() -> None:
        gateway = GatewayServer(
            fleet.ecovisor,
            config=GatewayConfig(host=args.host, port=args.port),
        )
        await gateway.start()
        driver = TickDriver(
            gateway, fleet.engine, tick_interval_seconds=args.tick_interval
        )
        print(
            f"serving {scenario_name} on "
            f"http://{gateway.host}:{gateway.port} "
            f"({len(fleet.applications)} apps, {params['ticks']} ticks)",
            flush=True,
        )
        try:
            await driver.run(int(params["ticks"]))
            print(
                f"scenario complete after {driver.ticks_run} ticks; "
                "serving final state (Ctrl-C to stop)",
                flush=True,
            )
            await asyncio.Event().wait()
        finally:
            await gateway.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("stopped")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the Ecovisor paper (ASPLOS 2023).",
    )
    parser.add_argument(
        "experiment",
        choices=[
            "claims", "profile", "routes", "scenarios", "serve", "sweep",
            "traces",
        ],
        help="'claims', 'routes', 'scenarios', 'serve', 'sweep', "
             "'profile', or 'traces'",
    )
    parser.add_argument(
        "scenario", nargs="?", default=None,
        help="registered scenario name (required for 'sweep' and "
             "'profile', optional for 'serve'); action for 'traces' "
             "(list/show/validate)",
    )
    parser.add_argument(
        "dataset", nargs="?", default=None,
        help="dataset name for 'traces show'",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for 'sweep' and 'claims' (1 = serial fallback)",
    )
    parser.add_argument(
        "--param", action="append", default=None, metavar="K=V[,K=V...]",
        help="pin a scenario parameter; V1/V2/... redefines a sweep axis",
    )
    parser.add_argument(
        "--out", type=str, default=None, metavar="PATH",
        help="write the sweep results table to PATH "
             "(.csv by extension, canonical JSON otherwise)",
    )
    parser.add_argument(
        "--verbose", action="store_true",
        help="show scenario descriptions in 'scenarios'",
    )
    parser.add_argument(
        "--ticks", type=int, default=None,
        help="override the scenario's tick count for 'profile' and 'serve'",
    )
    parser.add_argument(
        "--host", type=str, default="127.0.0.1",
        help="bind address for 'serve' (default 127.0.0.1)",
    )
    parser.add_argument(
        "--port", type=int, default=8090,
        help="bind port for 'serve' (0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--tick-interval", type=float, default=0.0, metavar="SECONDS",
        help="wall-clock pause between ticks for 'serve' "
             "(0 = run the scenario flat out, then keep serving)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (
        args.experiment not in ("sweep", "profile", "serve", "traces")
        and args.scenario
    ):
        parser.error(
            f"unexpected argument {args.scenario!r} "
            f"(only 'sweep', 'profile', 'serve', and 'traces' take one)"
        )
    if args.experiment != "traces" and args.dataset:
        parser.error(
            f"unexpected argument {args.dataset!r} "
            f"(only 'traces show' takes a dataset name)"
        )
    if args.experiment == "claims":
        return cmd_claims(args)
    if args.experiment == "routes":
        cmd_routes(args)
        return 0
    if args.experiment == "scenarios":
        cmd_scenarios(args)
        return 0
    if args.experiment == "sweep":
        if not args.scenario:
            parser.error("sweep requires a scenario name (see 'scenarios')")
        from repro.core.errors import ScenarioError

        try:
            return cmd_sweep(args)
        except (ScenarioError, ValueError) as exc:
            parser.error(str(exc))
    if args.experiment == "profile":
        if not args.scenario:
            parser.error("profile requires a scenario name (see 'scenarios')")
        from repro.core.errors import ScenarioError

        try:
            return cmd_profile(args)
        except (ScenarioError, ValueError) as exc:
            parser.error(str(exc))
    if args.experiment == "serve":
        from repro.core.errors import ScenarioError

        try:
            return cmd_serve(args)
        except (ScenarioError, ValueError) as exc:
            parser.error(str(exc))
    try:
        return cmd_traces(args)
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
