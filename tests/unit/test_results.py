"""Result records and summaries."""


import pytest

from repro.sim.results import BatchRunResult, summarize_batch


def result(label="p", runtime=3600.0, carbon=1.0, completed=True):
    return BatchRunResult(
        policy_label=label,
        arrival_offset_s=0.0,
        runtime_s=runtime,
        carbon_g=carbon,
        energy_wh=10.0,
        completed=completed,
    )


class TestBatchSummary:
    def test_mean_and_std(self):
        summary = summarize_batch(
            [result(runtime=3600.0), result(runtime=7200.0)]
        )
        assert summary.mean_runtime_s == pytest.approx(5400.0)
        assert summary.std_runtime_s == pytest.approx(2545.58, rel=1e-3)
        assert summary.mean_runtime_hours == pytest.approx(1.5)
        assert summary.runs == 2

    def test_single_run_std_zero(self):
        summary = summarize_batch([result()])
        assert summary.std_runtime_s == 0.0
        assert summary.std_carbon_g == 0.0

    def test_completion_rate(self):
        summary = summarize_batch([result(), result(completed=False)])
        assert summary.completion_rate == pytest.approx(0.5)

    def test_ratio_helpers(self):
        base = summarize_batch([result(runtime=3600.0, carbon=2.0)])
        other = summarize_batch([result(runtime=7200.0, carbon=1.0)])
        assert other.runtime_ratio_vs(base) == pytest.approx(2.0)
        assert other.carbon_change_vs(base) == pytest.approx(-0.5)

    def test_mixed_labels_rejected(self):
        with pytest.raises(ValueError):
            summarize_batch([result("a"), result("b")])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_batch([])

    def test_runtime_hours_on_result(self):
        assert result(runtime=1800.0).runtime_hours == pytest.approx(0.5)

    def test_metrics_are_the_summary_fields(self):
        summary = summarize_batch([result(runtime=3600.0), result(runtime=7200.0)])
        assert summary.metrics() == {
            "mean_runtime_s": 5400.0,
            "std_runtime_s": summary.std_runtime_s,
            "mean_carbon_g": 1.0,
            "std_carbon_g": 0.0,
            "mean_energy_wh": summary.mean_energy_wh,
            "completion_rate": 1.0,
        }
