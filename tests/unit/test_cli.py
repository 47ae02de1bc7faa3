"""Command-line interface."""

import re
from pathlib import Path

import pytest

from repro.analysis import claims
from repro.cli import build_parser, build_route_rows, main, parse_param_overrides
from repro.sim import scenarios

DOCS_API_TOUR = Path(__file__).resolve().parents[2] / "docs" / "api_tour.md"


class TestParser:
    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])

    def test_accepts_all_figures(self):
        # One scenario per paper figure (Figure 7 is a view of 6's runs,
        # 9 of 8's); `claims` checks them all.
        figures = {
            name for name in scenarios.names() if "figure" in scenarios.get(name).tags
        }
        assert figures == {
            "fig01_carbon_traces", "fig04a_ml_training", "fig04b_blast",
            "fig05_multitenancy", "fig06_web_budgeting", "fig08_battery_policies",
            "fig10_solar_day", "fig10_solar_caps", "fig11_stragglers",
        }
        for name in sorted(figures):
            assert build_parser().parse_args(["sweep", name]).scenario == name
        assert build_parser().parse_args(["claims"]).experiment == "claims"

    def test_points_option(self):
        # The per-figure options are gone: `--param` sets scenario values.
        for option in ("--points", "--reps", "--days"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["sweep", "fig10_solar_caps", option, "50"])

    def test_sweep_arguments(self):
        args = build_parser().parse_args(
            ["sweep", "smoke", "--jobs", "2", "--param", "ticks=15"]
        )
        assert args.experiment == "sweep"
        assert args.scenario == "smoke"
        assert args.jobs == 2
        assert args.param == ["ticks=15"]


class TestParamOverrides:
    def test_scalar_types(self):
        overrides = parse_param_overrides(
            ["ticks=15,scale=0.5", "policy=dynamic", "flag=true"]
        )
        assert overrides == {
            "ticks": 15, "scale": 0.5, "policy": "dynamic", "flag": True
        }

    def test_slash_list_becomes_axis(self):
        overrides = parse_param_overrides(["solar_pct=10/50/90"])
        assert overrides == {"solar_pct": [10, 50, 90]}

    def test_malformed_pair_raises(self):
        with pytest.raises(ValueError):
            parse_param_overrides(["oops"])


class TestCommands:
    def test_list(self):
        # `list` and the per-figure commands are gone: `scenarios` lists
        # the catalog, `claims` checks every figure.
        for command in ("list", "fig04a", "fig10"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command])

    def test_fig01(self, capsys):
        assert main(["sweep", "fig01_carbon_traces", "--param", "days=1"]) == 0
        out = capsys.readouterr().out
        assert "region=ontario" in out and "region=caiso" in out
        assert "samples=288" in out

    def test_fig04a_small(self, capsys):
        assert main(["sweep", "fig04a_ml_training", "--param", "reps=2"]) == 0
        out = capsys.readouterr().out
        assert "policy=ws-2x" in out
        assert "policy=agnostic" in out
        assert "4/4 ok" in out

    def test_fig10_small(self, capsys):
        assert main(["sweep", "fig10_solar_caps", "--param", "solar_pct=50"]) == 0
        out = capsys.readouterr().out
        assert "solar_pct=50" in out
        assert "2/2 ok" in out

    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out
        assert "fig10_solar_caps" in out
        assert "fleet_churn" in out

    def test_routes_prints_live_table(self, capsys):
        assert main(["routes"]) == 0
        out = capsys.readouterr().out
        assert "GET     /v1/apps/{app}/state" in out
        assert "/v1/admin/apps" in out
        assert "/v1/apps/{app}/events" in out
        assert "admit_app" in out


class TestRouteDocsSync:
    """docs/api_tour.md's route table must match the live Router."""

    def _documented_routes(self):
        rows = set()
        pattern = re.compile(r"^\| (GET|POST|PATCH|DELETE) \| `([^`]+)` \|")
        for line in DOCS_API_TOUR.read_text().splitlines():
            found = pattern.match(line)
            if found:
                rows.add((found.group(1), found.group(2)))
        return rows

    def test_docs_table_matches_live_router(self):
        live = {(method, path) for method, path, *_ in build_route_rows()}
        documented = self._documented_routes()
        assert documented == live, (
            "docs/api_tour.md route table is out of sync with the live "
            "Router; run `python -m repro routes` and update the docs.\n"
            f"missing from docs: {sorted(live - documented)}\n"
            f"stale in docs: {sorted(documented - live)}"
        )

    def test_sweep_smoke_serial(self, capsys):
        assert main(["sweep", "smoke", "--param", "ticks=15"]) == 0
        out = capsys.readouterr().out
        assert "sweep smoke: 2 runs (serial)" in out
        assert "2/2 ok" in out

    def test_sweep_smoke_parallel(self, capsys):
        assert main(["sweep", "smoke", "--jobs", "2", "--param", "ticks=15"]) == 0
        out = capsys.readouterr().out
        assert "2 worker processes" in out
        assert "2/2 ok" in out

    def test_sweep_reports_failures_nonzero(self, capsys):
        assert main(["sweep", "smoke", "--param", "ticks=15,fail=1"]) == 1
        out = capsys.readouterr().out
        assert "ERR" in out
        assert "0/2 ok" in out

    def test_sweep_without_scenario_errors(self):
        with pytest.raises(SystemExit):
            main(["sweep"])

    def test_figure_command_rejects_stray_positional(self, capsys):
        with pytest.raises(SystemExit):
            main(["claims", "oops"])
        assert "unexpected argument 'oops'" in capsys.readouterr().err

    def test_single_run_sweep_reports_serial(self, capsys):
        assert main(
            ["sweep", "smoke", "--jobs", "4",
             "--param", "ticks=15,workers=2"]
        ) == 0
        out = capsys.readouterr().out
        assert "1 runs (serial)" in out

    def test_sweep_out_writes_json(self, capsys, tmp_path):
        out = tmp_path / "table.json"
        assert main(
            ["sweep", "smoke", "--param", "ticks=15", "--out", str(out)]
        ) == 0
        assert f"wrote results table to {out}" in capsys.readouterr().out
        import json

        rows = json.loads(out.read_text())
        assert len(rows) == 2
        assert rows[0]["scenario"] == "smoke"
        assert rows[0]["status"] == "ok"
        assert "config_hash" in rows[0]

    def test_sweep_out_writes_csv_by_extension(self, capsys, tmp_path):
        out = tmp_path / "table.csv"
        assert main(
            ["sweep", "smoke", "--param", "ticks=15", "--out", str(out)]
        ) == 0
        import csv

        with out.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert rows[0]["scenario"] == "smoke"
        assert {"config_hash", "status", "workers"} <= set(rows[0])

    def test_sweep_out_serial_and_parallel_identical(self, tmp_path):
        serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
        assert main(["sweep", "smoke", "--param", "ticks=15",
                     "--out", str(serial)]) == 0
        assert main(["sweep", "smoke", "--jobs", "2", "--param", "ticks=15",
                     "--out", str(parallel)]) == 0
        assert serial.read_bytes() == parallel.read_bytes()

    def test_sweep_unknown_scenario_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "no-such-scenario"])
        err = capsys.readouterr().err
        assert "unknown scenario: 'no-such-scenario'" in err

    def test_sweep_bad_param_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "smoke", "--param", "typo=5"])
        err = capsys.readouterr().err
        assert "has no parameter 'typo'" in err


class TestClaimsCommand:
    """`repro claims` over a one-row table on the smoke scenario."""

    def _one_row(self, monkeypatch, check):
        row = claims.Claim(
            "smoke", "ticks executed, fewest run", "-", 6, "{:.0f}", check,
            lambda t: min(r["ticks_executed"] for r in t["smoke"]), "test row",
        )
        monkeypatch.setattr(claims, "CLAIMS", (row,))
        monkeypatch.setattr(claims, "SCENARIOS", ("smoke",))

    def test_holding_row_exits_zero(self, capsys, monkeypatch):
        self._one_row(monkeypatch, claims.at_least(1.0))
        assert main(["claims"]) == 0
        out = capsys.readouterr().out
        assert "| smoke | ticks executed, fewest run | - | 6 | >= 1 | test row |" in out
        assert "1/1 claims hold" in out
        assert "FAIL" not in out

    def test_failing_row_exits_one_and_is_named(self, capsys, monkeypatch):
        self._one_row(monkeypatch, claims.at_least(1000.0))
        assert main(["claims", "--jobs", "2"]) == 1
        out = capsys.readouterr().out
        assert "FAIL smoke | ticks executed, fewest run: fails >= 1000" in out
        assert "0/1 claims hold" in out


class TestProfile:
    def test_profile_prints_phase_table(self, capsys):
        assert main(["profile", "fleet_small", "--ticks", "12"]) == 0
        out = capsys.readouterr().out
        assert "=== profile fleet_small:" in out
        for phase in (
            "begin_tick",
            "policy_batch",
            "policy_fallback",
            "workload_step",
            "settle",
            "telemetry_flush",
        ):
            assert phase in out
        assert "tick total" in out
        assert "of wall-clock" in out
        assert "slow ticks" in out

    def test_profile_out_writes_report(self, capsys, tmp_path):
        out = tmp_path / "profile.json"
        assert main(
            ["profile", "fleet_small", "--ticks", "12", "--out", str(out)]
        ) == 0
        import json

        report = json.loads(out.read_text())
        assert report["scenario"] == "fleet_small"
        assert report["ticks_executed"] == 12
        assert len(report["summary"]["phase_table"]) == 6
        assert f"wrote profile report to {out}" in capsys.readouterr().out

    def test_profile_phase_sum_tracks_wall_clock(self):
        from repro.cli import run_profile

        report = run_profile("fleet_small", ticks=12)
        # The brackets partition each tick; wall additionally includes
        # cache priming and loop overhead outside the brackets.
        assert 0.0 < report["phase_sum_s"] <= report["wall_s"]
        assert report["coverage"] > 0.5

    def test_profile_without_scenario_errors(self):
        with pytest.raises(SystemExit):
            main(["profile"])

    def test_profile_rejects_non_fleet_scenario(self, capsys):
        with pytest.raises(SystemExit):
            main(["profile", "smoke"])
        assert "fleet" in capsys.readouterr().err


class TestTracesCommand:
    def test_list_is_the_default_action(self, capsys):
        assert main(["traces"]) == 0
        out = capsys.readouterr().out
        assert "caiso-2022" in out
        assert "wind-cf-2022" in out
        assert "gCO2eq/kWh" in out

    def test_show_prints_descriptor_and_stats(self, capsys):
        assert main(["traces", "show", "caiso-2022"]) == 0
        out = capsys.readouterr().out
        assert "sha256:" in out
        assert "samples:  1152" in out
        assert "duck curve" in out

    def test_show_unknown_dataset_errors_listing_names(self, capsys):
        with pytest.raises(SystemExit):
            main(["traces", "show", "nope"])
        err = capsys.readouterr().err
        assert "unknown dataset 'nope'" in err
        assert "caiso-2022" in err

    def test_show_without_dataset_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["traces", "show"])
        assert "requires a dataset name" in capsys.readouterr().err

    def test_validate_verifies_every_dataset(self, capsys):
        assert main(["traces", "validate"]) == 0
        out = capsys.readouterr().out
        assert "8/8 datasets verified" in out

    def test_unknown_action_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["traces", "frobnicate"])
        assert "unknown traces action" in capsys.readouterr().err

    def test_dataset_arg_rejected_elsewhere(self):
        with pytest.raises(SystemExit):
            main(["sweep", "smoke", "caiso-2022"])
