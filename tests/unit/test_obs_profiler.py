"""Tick-phase profiler: ring buffer, histogram rollup, slow-tick log."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import PHASES, TickProfiler


def record_uniform(profiler: TickProfiler, n: int, phase_s: float = 1e-3):
    for i in range(n):
        profiler.record(
            i, phase_s, phase_s, phase_s, phase_s, phase_s, phase_s
        )


class TestRecording:
    def test_phases_partition_the_tick(self):
        p = TickProfiler()
        p.record(0, 0.001, 0.002, 0.003, 0.004, 0.005, 0.006)
        (tick,) = p.last()
        assert tick["tick_index"] == 0
        assert tick["phases"] == dict(
            zip(PHASES, (0.001, 0.002, 0.003, 0.004, 0.005, 0.006))
        )
        assert tick["total_s"] == pytest.approx(0.021)

    def test_ring_retains_only_the_newest(self):
        p = TickProfiler(ring_size=4)
        record_uniform(p, 10)
        assert len(p) == 4
        assert p.ticks_recorded == 10
        assert [t["tick_index"] for t in p.last()] == [6, 7, 8, 9]

    def test_last_n_returns_newest_oldest_first(self):
        p = TickProfiler(ring_size=8)
        record_uniform(p, 5)
        assert [t["tick_index"] for t in p.last(2)] == [3, 4]
        assert len(p.last(100)) == 5
        with pytest.raises(ValueError, match="non-negative"):
            p.last(-1)

    def test_histograms_accumulate_in_the_registry(self):
        registry = MetricsRegistry()
        p = TickProfiler(registry=registry)
        record_uniform(p, 3, phase_s=1e-3)
        phase = registry.get("tick_phase_seconds")
        assert phase.labels(phase="settle").count == 3
        assert phase.labels(phase="settle").sum == pytest.approx(3e-3)
        assert registry.get("tick_total_seconds").count == 3

    def test_phase_totals_and_total_seconds(self):
        p = TickProfiler()
        record_uniform(p, 4, phase_s=2e-3)
        totals = p.phase_totals()
        assert set(totals) == set(PHASES)
        assert totals["workload_step"] == pytest.approx(8e-3)
        assert p.total_seconds() == pytest.approx(4 * 6 * 2e-3)

    def test_reset_clears_ring_but_not_histograms(self):
        registry = MetricsRegistry()
        p = TickProfiler(registry=registry)
        record_uniform(p, 5)
        p.reset()
        assert len(p) == 0
        assert p.ticks_recorded == 0
        assert p.slow_ticks() == []
        # Registry rollups are cumulative by design.
        assert registry.get("tick_total_seconds").count == 5


class TestSlowTicks:
    def test_outlier_lands_in_the_slow_log(self):
        p = TickProfiler(slow_factor=4.0)
        record_uniform(p, 40, phase_s=1e-3)  # median ~5e-3 established
        p.record(40, 0.1, 1e-3, 1e-3, 1e-3, 1e-3, 1e-3)
        assert p.slow_ticks_total == 1
        (entry,) = p.slow_ticks()
        assert entry["tick_index"] == 40
        assert entry["phases"]["begin_tick"] == pytest.approx(0.1)
        assert entry["total_s"] > 4.0 * entry["median_s"]

    def test_uniform_ticks_are_never_slow(self):
        p = TickProfiler()
        record_uniform(p, 100)
        assert p.slow_ticks_total == 0

    def test_slow_log_is_bounded(self):
        p = TickProfiler(slow_factor=2.0, slow_log_size=3)
        record_uniform(p, 40, phase_s=1e-3)
        for i in range(10):
            p.record(40 + i, 0.1, 1e-3, 1e-3, 1e-3, 1e-3, 1e-3)
        assert p.slow_ticks_total >= 4
        assert len(p.slow_ticks()) == 3

    def test_slow_total_exposed_via_registry_callback(self):
        registry = MetricsRegistry()
        p = TickProfiler(registry=registry, slow_factor=4.0)
        record_uniform(p, 40, phase_s=1e-3)
        p.record(40, 0.1, 1e-3, 1e-3, 1e-3, 1e-3, 1e-3)
        assert "slow_ticks_total 1" in registry.render()


class TestReporting:
    def test_phase_table_shares_sum_to_one(self):
        p = TickProfiler()
        record_uniform(p, 10)
        table = p.phase_table()
        assert [row["phase"] for row in table] == list(PHASES)
        assert sum(row["share"] for row in table) == pytest.approx(1.0)
        for row in table:
            assert row["mean_s"] == pytest.approx(1e-3)

    def test_summary_shape(self):
        p = TickProfiler()
        record_uniform(p, 3)
        summary = p.summary()
        assert summary["ticks_recorded"] == 3
        assert summary["mean_tick_s"] == pytest.approx(6e-3)
        assert len(summary["phase_table"]) == len(PHASES)
        assert summary["slow_ticks_total"] == 0

    def test_percentiles_are_exact_over_the_ring(self):
        # 101 ticks whose settle phase takes 0, 1, ..., 100 µs (shuffled
        # so ring order cannot matter).  Exact percentiles land between
        # histogram bucket edges: p50 = 50 µs, p99 = 99 µs.
        p = TickProfiler(ring_size=128)
        for i in range(101):
            settle_s = (i * 37 % 101) * 1e-6
            p.record(i, 1e-3, 0.0, 0.0, 0.0, settle_s, 0.0)
        settle = next(r for r in p.phase_table() if r["phase"] == "settle")
        assert settle["p50_s"] == pytest.approx(50e-6, rel=1e-9)
        assert settle["p99_s"] == pytest.approx(99e-6, rel=1e-9)
        begin = p.phase_table()[0]
        assert begin["p50_s"] == begin["p99_s"] == pytest.approx(1e-3)
        summary = p.summary()
        assert summary["p50_tick_s"] == pytest.approx(1e-3 + 50e-6, rel=1e-9)
        assert summary["p99_tick_s"] == pytest.approx(1e-3 + 99e-6, rel=1e-9)

    def test_percentiles_cover_only_retained_ticks(self):
        p = TickProfiler(ring_size=4)
        record_uniform(p, 10, phase_s=5e-3)  # evicted from the ring
        record_uniform(p, 4, phase_s=1e-3)
        assert p.summary()["p99_tick_s"] == pytest.approx(6e-3)
        # Totals and means stay cumulative over every recorded tick.
        assert p.summary()["mean_tick_s"] == pytest.approx(
            (10 * 30e-3 + 4 * 6e-3) / 14
        )

    def test_empty_profiler_reports_zeros(self):
        p = TickProfiler()
        assert p.phase_table()[0]["share"] == 0.0
        assert p.phase_table()[0]["p99_s"] == 0.0
        assert p.summary()["mean_tick_s"] == 0.0
        assert p.summary()["p50_tick_s"] == 0.0
        assert p.ticks_payload()["returned"] == 0

    def test_ticks_payload_shape(self):
        p = TickProfiler(ring_size=16)
        record_uniform(p, 5)
        payload = p.ticks_payload(last=2)
        assert payload["enabled"] is True
        assert payload["phases"] == list(PHASES)
        assert payload["ring_size"] == 16
        assert payload["ticks_recorded"] == 5
        assert payload["returned"] == 2
        assert [t["tick_index"] for t in payload["ticks"]] == [3, 4]


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError, match="ring_size"):
            TickProfiler(ring_size=0)
        with pytest.raises(ValueError, match="slow_factor"):
            TickProfiler(slow_factor=1.0)
        with pytest.raises(ValueError, match="slow_log_size"):
            TickProfiler(slow_log_size=0)

    def test_private_registry_by_default(self):
        p = TickProfiler()
        assert p.registry.get("tick_total_seconds") is not None
