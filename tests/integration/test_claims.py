"""The paper's claims table (repro.analysis.claims), checked at the
scenarios' committed defaults, and the copies of it that must not drift."""

import builtins
from pathlib import Path

import pytest

from repro.analysis import claims
from repro.sim import scenarios
from repro.sim.runner import run_sweep
from tests.integration.test_columnar_parity import compensated_sum

README = Path(__file__).resolve().parents[2] / "README.md"


def test_every_claim_holds(claims_report):
    assert not claims_report.failed_runs, claims_report.failed_runs
    failures = claims_report.failures()
    assert not failures, "failing claims rows:\n" + "\n".join(failures)


class TestReadmeSync:
    """README's "Reproducing the figures" table is `repro claims`' table."""

    def _readme_table(self):
        text = README.read_text()
        section = text.split("## Reproducing the figures", 1)[1].split("\n## ", 1)[0]
        return [line for line in section.splitlines() if line.startswith("|")]

    def test_readme_table_matches_claims(self, claims_report):
        documented = self._readme_table()
        live = claims_report.table()
        assert documented == live, (
            "README's claims table is out of sync; paste the table "
            "`python -m repro claims` prints.\n"
            f"missing from README: {[r for r in live if r not in documented][:5]}\n"
            f"stale in README: {[r for r in documented if r not in live][:5]}"
        )


class TestTable:
    """The table's own consistency; no scenario runs."""

    def test_rows_are_unique(self):
        keys = [(c.figure, c.quantity) for c in claims.CLAIMS]
        assert len(keys) == len(set(keys))

    def test_every_ordering_states_its_reason(self):
        for c in claims.CLAIMS:
            if c.check.op != "~":
                assert c.reason, f"{c.figure} | {c.quantity} has no reason"

    def test_pinned_values_pass_their_checks(self):
        for c in claims.CLAIMS:
            assert c.check.holds(c.reproduced), f"{c.figure} | {c.quantity}"

    def test_every_figure_has_rows(self):
        figures = {c.figure for c in claims.CLAIMS}
        for figure in ("1", "4a", "4b", "5", "6", "7", "8", "9", "10a-b", "10c", "11"):
            assert figure in figures

    def test_table_reads_every_figure_ablation_and_extension_scenario(self):
        tagged = {
            name
            for name in scenarios.names()
            if {"figure", "ablation", "extension"} & set(scenarios.get(name).tags)
        }
        assert tagged == set(claims.SCENARIOS)

    @pytest.mark.parametrize(
        "op, bound, upper, good, bad",
        [
            ("<", 1.0, 0.0, 0.5, 1.0),
            ("between", 0.0, 1.0, 0.5, 1.0),
            ("~", 10.0, 2.0, 12.0, 12.5),
            ("!=", 0.0, 0.0, 1.0, 0.0),
        ],
    )
    def test_checks(self, op, bound, upper, good, bad):
        check = claims.Check(op, bound, upper)
        assert check.holds(good)
        assert not check.holds(bad)


class TestCompensatedSum:
    """Python 3.12+ compensates builtin ``sum``; the batch means and
    standard deviations and the market's billing recompute must not use
    it, or a claims row pinned at seed 2023 reads differently there.
    Each override below printed different tables under 3.12's ``sum``
    while those sums were builtin."""

    @pytest.mark.parametrize(
        "scenario, overrides",
        [
            ("fig04b_blast", {"policy": "agnostic", "reps": 6}),
            ("ablation_threshold", {"percentile": 50.0, "reps": 3}),
            (
                "extension_market",
                {"days": 1, "work_units": 6000.0, "regime": "flat",
                 "policy": "carbon-threshold", "lam": 0.0},
            ),
        ],
    )
    def test_serial_sweep_byte_identical(self, scenario, overrides, monkeypatch):
        plain = run_sweep(scenario, overrides=overrides).metrics_json()
        monkeypatch.setattr(builtins, "sum", compensated_sum)
        assert run_sweep(scenario, overrides=overrides).metrics_json() == plain
