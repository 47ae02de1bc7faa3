"""The A/B gate's verdict rule (benchmarks/ab.py), on synthetic samples."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

#: Ten parent runs with quartiles 99.5 and 100.5: an IQR of 1% of the median.
PARENT = [99.0, 101.0, 100.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5]


def shifted(by: float):
    return [v + by for v in PARENT]


class TestVerdict:
    @pytest.mark.parametrize(
        "better, by, expected",
        [
            # 30% the wrong way, past the 25% bound.
            ("higher", -30.0, "worse"),
            ("lower", 30.0, "worse"),
            # 20% the wrong way is within the bound.
            ("higher", -20.0, "unchanged"),
            ("lower", 20.0, "unchanged"),
            # 10/10 pairs won, by more than the parent's IQR.
            ("higher", 2.0, "better"),
            ("lower", -2.0, "better"),
        ],
    )
    def test_direction(self, better, by, expected):
        assert ab.verdict(PARENT, shifted(by), better, 0.25) == expected

    def test_gap_within_the_parents_spread_is_unchanged(self):
        # Every pair won, but the medians differ by no more than the IQR.
        assert ab.verdict(PARENT, shifted(1.0), "higher", 0.25) == "unchanged"
        assert ab.verdict(PARENT, shifted(1.1), "higher", 0.25) == "better"

    def test_nine_of_ten_pairs_suffice_eight_do_not(self):
        nine = shifted(5.0)
        nine[0] = PARENT[0]  # a tie counts for neither side
        assert ab.wins(PARENT, nine, "higher") == 9
        assert ab.verdict(PARENT, nine, "higher", 0.25) == "better"
        eight = list(nine)
        eight[1] = PARENT[1] - 1.0
        assert ab.wins(PARENT, eight, "higher") == 8
        assert ab.verdict(PARENT, eight, "higher", 0.25) == "unchanged"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        parent = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        change = [v + 10.0 for v in parent]
        assert ab.verdict(parent, change, "higher", 0.25) == "unresolved"
        assert ab.verdict(parent, change, "lower", 0.25) == "unresolved"

    def test_every_run_better_resolves_a_wide_spread(self):
        parent = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        assert ab.verdict(parent, [150.0] * 10, "higher", 0.25) == "better"
        assert ab.verdict(parent, [50.0] * 10, "lower", 0.25) == "better"
        # One change run inside the parent's range leaves it unresolved.
        assert ab.verdict(parent, [150.0] * 9 + [139.0], "higher", 0.25) == "unresolved"

    def test_worse_wins_over_a_wide_spread(self):
        parent = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
        assert ab.verdict(parent, [v * 0.7 for v in parent], "higher", 0.25) == "worse"

    def test_bound_is_a_fraction_of_the_parents_median(self):
        # The 15% memory bound: +16% is worse, +14% is not.
        assert ab.verdict(PARENT, shifted(16.0), "lower", 0.15) == "worse"
        assert ab.verdict(PARENT, shifted(14.0), "lower", 0.15) == "unchanged"


def _run(value: float, correct: bool = True, attempted: int = 100, failed: int = 0):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {"ticks_per_s": {"value": value}, "tick_p50_ms": {"value": 1e3 / value}},
    }


METRICS = [
    {"name": "ticks_per_s", "better": "higher", "bound": 0.25},
    {"name": "tick_p50_ms", "better": "lower", "bound": 0.25},
]


class TestCompare:
    def test_a_no_op_passes(self):
        parent = [_run(v) for v in PARENT]
        rows, problems, notes = ab.compare("w", parent, parent, METRICS)
        assert problems == notes == []
        assert rows[0].startswith("| w (10) | ticks_per_s | 100 (99.5–100.5) |")
        assert rows[0].endswith("| 0/10 | unchanged |")
        assert rows[1].startswith("|  | tick_p50_ms |")

    def test_a_worse_metric_fails(self):
        parent = [_run(v) for v in PARENT]
        change = [_run(v * 0.7) for v in PARENT]
        rows, problems, _ = ab.compare("w", parent, change, METRICS)
        assert problems == ["w: ticks_per_s is worse", "w: tick_p50_ms is worse"]

    def test_an_incorrect_change_run_fails(self):
        # A digest that differs from the change's reference is a failed
        # operation, so the change's failed share exceeds the parent's.
        parent = [_run(v) for v in PARENT]
        change = [_run(v) for v in PARENT[:-1]] + [_run(PARENT[-1], correct=False, failed=1)]
        _, problems, notes = ab.compare("w", parent, change, METRICS)
        assert problems == ["w: failed share 0.001 against the parent's 0"]
        assert notes == ["w: 1/10 change runs printed correct: false"]

    def test_an_incorrect_parent_run_is_noted_not_failed(self):
        parent = [_run(v) for v in PARENT[:-1]] + [_run(PARENT[-1], correct=False, failed=1)]
        change = [_run(v) for v in PARENT]
        _, problems, notes = ab.compare("w", parent, change, METRICS)
        assert problems == []
        assert notes == ["w: 1/10 parent runs printed correct: false"]

    def test_a_host_that_reproduces_neither_reference_passes(self):
        # Every episode of a day misses its side's digest: one failed
        # operation per 1440 ticks on both sides, whatever the episode count.
        parent = [_run(v, correct=False, attempted=1440 * 3, failed=3) for v in PARENT]
        change = [_run(v, correct=False, attempted=1440 * 4, failed=4) for v in PARENT]
        _, problems, notes = ab.compare("w", parent, change, METRICS)
        assert problems == []
        assert notes == [
            "w: 10/10 parent runs printed correct: false",
            "w: 10/10 change runs printed correct: false",
        ]

    def test_a_larger_failed_share_fails(self):
        parent = [_run(v, failed=1) for v in PARENT]
        same = [_run(v, failed=1) for v in PARENT]
        assert ab.compare("w", parent, same, METRICS)[1] == []
        more = [_run(v, failed=2) for v in PARENT]
        _, problems, _ = ab.compare("w", parent, more, METRICS)
        assert problems == ["w: failed share 0.02 against the parent's 0.01"]

    def test_failed_share_is_over_every_run(self):
        runs = [_run(1.0, attempted=300, failed=3), _run(1.0, attempted=100, failed=1)]
        assert ab.failed_share(runs) == pytest.approx(0.01)
        assert ab.failed_share([_run(1.0, attempted=0)]) == 0.0


class TestOverlay:
    @staticmethod
    def _tree(root, run_py, reference=None):
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text(run_py)
        if reference is not None:
            (root / "perfbench" / "reference.json").write_text(reference)
        (root / "BENCHMARK.json").write_text(run_py)
        return root

    def test_the_parent_keeps_its_own_reference(self, tmp_path):
        source = self._tree(tmp_path / "change", "new", reference="regenerated")
        tree = self._tree(tmp_path / "parent", "old", reference="committed")
        ab.overlay(source, tree)
        assert (tree / "perfbench" / "run.py").read_text() == "new"
        assert (tree / "BENCHMARK.json").read_text() == "new"
        assert (tree / "perfbench" / "reference.json").read_text() == "committed"

    def test_a_parent_without_a_reference_takes_the_changes(self, tmp_path):
        source = self._tree(tmp_path / "change", "new", reference="regenerated")
        tree = tmp_path / "parent"
        tree.mkdir()
        ab.overlay(source, tree)
        assert (tree / "perfbench" / "reference.json").read_text() == "regenerated"
