"""Command-line interface: regenerate figures and run scenario sweeps.

Usage::

    python -m repro list                 # available experiments
    python -m repro fig04a               # ML training policy comparison
    python -m repro fig04a --reps 4      # quicker, fewer arrivals
    python -m repro fig10 --points 20,50,80
    python -m repro scenarios            # the registered scenario catalog
    python -m repro routes               # the live /v1 REST route table
    python -m repro sweep smoke --jobs 2 # run a scenario matrix in parallel
    python -m repro sweep fig10_solar_caps --jobs 4 --param solar_pct=10/50/90
    python -m repro sweep extension_market --jobs 4 --out market.csv
    python -m repro profile fleet_medium # tick-phase profile of a fleet run
    python -m repro profile fleet_large --ticks 30 --out profile.json
    python -m repro serve fleet_small --port 8090   # async API gateway
    python -m repro serve fleet_medium --port 0 --tick-interval 0.25
    python -m repro traces               # bundled signal datasets
    python -m repro traces show caiso-2022
    python -m repro traces validate      # checksum-verify every dataset

Each figure command runs the same experiment builder the benchmarks use
and prints the figure's rows.  ``sweep`` expands a registered scenario's
parameter matrix and executes it across worker processes (``--jobs``),
printing one tidy row per run plus provenance (config hash, wall time).
``--param k=v,...`` pins parameters; a ``/``-separated value list (e.g.
``solar_pct=10/50/90``) redefines a sweep axis.  ``--out PATH`` persists
the results table (CSV when PATH ends in ``.csv``, canonical JSON
otherwise) so CI and benchmarks can consume artifacts instead of
scraping stdout.  Everything is deterministic: a parallel sweep produces
byte-identical metrics (and written tables) to the serial fallback
(``--jobs 1``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, List, Optional, Sequence


def _print_batch(summaries, title: str) -> None:
    base = summaries[0]
    print(f"=== {title} ===")
    print(f"{'policy':14s} {'runtime':>11s} {'x agn':>7s} {'carbon':>10s} "
          f"{'vs agn':>8s}")
    for s in summaries:
        print(
            f"{s.policy_label:14s} {s.mean_runtime_hours:9.2f} h "
            f"{s.runtime_ratio_vs(base):6.2f}x {s.mean_carbon_g:8.3f} g "
            f"{s.carbon_change_vs(base) * 100:+7.1f}%"
        )


def cmd_fig01(args) -> None:
    import numpy as np

    from repro.analysis import fig01_carbon_traces

    bundle = fig01_carbon_traces(days=args.days)
    print("=== Figure 1: carbon intensity by region (g/kWh) ===")
    for region in ("ontario", "uruguay", "caiso"):
        values = np.asarray([v for _, v in bundle.series[region]])
        print(
            f"{region:10s} mean {values.mean():6.1f}  min {values.min():6.1f}  "
            f"max {values.max():6.1f}  std {values.std():6.1f}"
        )


def cmd_fig04a(args) -> None:
    from repro.analysis import fig04a_ml_training

    _print_batch(
        fig04a_ml_training(reps=args.reps),
        f"Figure 4a: ML training ({args.reps} arrivals)",
    )


def cmd_fig04b(args) -> None:
    from repro.analysis import fig04b_blast

    _print_batch(
        fig04b_blast(reps=args.reps),
        f"Figure 4b: BLAST ({args.reps} arrivals)",
    )


def cmd_fig05(args) -> None:
    from repro.analysis import fig05_multitenancy

    out = fig05_multitenancy(days=args.days)
    print("=== Figure 5: multi-tenant scaling ===")
    print(f"ML threshold:    {out['ml_threshold']:.1f} g/kWh")
    print(f"BLAST threshold: {out['blast_threshold']:.1f} g/kWh")
    for name in ("ml-training", "blast"):
        counts = [v for _, v in out["bundle"].series[f"{name}_containers"]]
        print(f"{name:12s} containers 0..{max(counts):.0f}")
    print(f"carbon: ML {out['ml_carbon_g']:.3f} g, BLAST {out['blast_carbon_g']:.3f} g")


def cmd_fig06(args) -> None:
    from repro.analysis import fig06_07_web_budgeting

    out = fig06_07_web_budgeting()
    print("=== Figures 6-7: web carbon budgeting (48 h) ===")
    for r in out["results"]:
        print(
            f"{r.policy_label:16s} {r.app_name:9s} SLO {r.slo_ms:4.0f}ms "
            f"violations {r.violation_fraction * 100:5.2f}%  "
            f"carbon {r.carbon_g:6.2f} g"
        )


def cmd_fig08(args) -> None:
    from repro.analysis import fig08_09_battery_policies

    out = fig08_09_battery_policies()
    print("=== Figures 8-9: battery policies (zero-carbon) ===")
    print(
        f"spark: static {out['spark_runtime_static_s'] / 3600:.1f} h, "
        f"dynamic {out['spark_runtime_dynamic_s'] / 3600:.1f} h "
        f"(-{out['spark_runtime_reduction_pct']:.1f}%)"
    )
    for r in out["web_results"]:
        print(
            f"web {r.policy_label:14s} violations "
            f"{r.violation_fraction * 100:5.1f}%"
        )
    print(f"carbon: {out['zero_carbon']}")


def _parse_points(spec: Optional[str], default: Sequence[int]) -> tuple:
    if not spec:
        return tuple(default)
    return tuple(int(p) for p in spec.split(","))


def cmd_fig10(args) -> None:
    from repro.analysis import fig10_solar_caps

    rows = fig10_solar_caps(
        percentages=_parse_points(args.points, (10, 30, 50, 70, 90))
    )
    print("=== Figure 10(c): solar power balancing ===")
    for row in rows:
        print(
            f"solar {row['solar_pct']:3.0f}%  improvement "
            f"{row['runtime_improvement_pct']:5.1f}%  "
            f"work/J {row['energy_efficiency_per_j']:.4f}"
        )


def cmd_fig11(args) -> None:
    from repro.analysis import fig11_straggler_mitigation

    rows = fig11_straggler_mitigation(
        percentages=_parse_points(args.points, (100, 125, 150, 175, 200))
    )
    print("=== Figure 11: straggler mitigation ===")
    for row in rows:
        print(
            f"solar {row['solar_pct']:3.0f}%  improvement "
            f"{row['runtime_improvement_pct']:5.1f}%  "
            f"work/J {row['energy_efficiency_per_j']:.4f}"
        )


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


COMMANDS: Dict[str, Callable] = {
    "fig01": cmd_fig01,
    "fig04a": cmd_fig04a,
    "fig04b": cmd_fig04b,
    "fig05": cmd_fig05,
    "fig06": cmd_fig06,
    "fig07": cmd_fig06,  # same experiment; Figure 7 is its other view
    "fig08": cmd_fig08,
    "fig09": cmd_fig08,  # same experiment; Figure 9 is its other view
    "fig10": cmd_fig10,
    "fig11": cmd_fig11,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate figures from the Ecovisor paper (ASPLOS 2023).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(COMMANDS) + [
            "list", "profile", "routes", "scenarios", "serve", "sweep",
            "traces",
        ],
        help="which figure to regenerate, 'list', 'routes', 'scenarios', "
             "'serve', 'sweep', 'profile', or 'traces'",
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
        help="worker processes for 'sweep' (1 = serial fallback)",
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
        "--reps", type=int, default=10,
        help="repetitions for Figure 4 experiments (default 10)",
    )
    parser.add_argument(
        "--days", type=int, default=2,
        help="trace days for Figures 1 and 5 (default 2)",
    )
    parser.add_argument(
        "--points", type=str, default=None,
        help="comma-separated sweep points for Figures 10/11",
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
    if args.experiment == "list":
        print("available experiments:")
        for name in sorted(COMMANDS):
            print(f"  {name}")
        print(
            "plus: scenarios (catalog), sweep <scenario> (parallel runner), "
            "profile <scenario> (tick-phase profiler), "
            "serve <scenario> (async API gateway), "
            "traces (bundled dataset registry)"
        )
        return 0
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
    if args.experiment == "traces":
        try:
            return cmd_traces(args)
        except ValueError as exc:
            parser.error(str(exc))
    COMMANDS[args.experiment](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
