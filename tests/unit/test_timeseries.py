"""Time-series database: recording, windows, aggregation, integration."""

import numpy as np
import pytest

from repro.core.errors import TraceError
from repro.telemetry.timeseries import Series, TimeSeriesDatabase


@pytest.fixture
def db() -> TimeSeriesDatabase:
    database = TimeSeriesDatabase()
    for i in range(10):
        database.record("power", i * 60.0, float(i))
    return database


class TestSeries:
    def test_append_and_latest(self):
        series = Series("s")
        series.append(0.0, 1.0)
        series.append(60.0, 2.0)
        assert series.latest() == (60.0, 2.0)
        assert len(series) == 2

    def test_monotonic_enforced(self):
        series = Series("s")
        series.append(60.0, 1.0)
        with pytest.raises(TraceError):
            series.append(30.0, 2.0)

    def test_equal_times_allowed(self):
        series = Series("s")
        series.append(60.0, 1.0)
        series.append(60.0, 2.0)
        assert len(series) == 2

    def test_latest_on_empty(self):
        with pytest.raises(TraceError):
            Series("s").latest()

    def test_window_half_open(self):
        series = Series("s")
        for t in (0.0, 60.0, 120.0):
            series.append(t, t)
        times, values = series.window(0.0, 120.0)
        assert list(times) == [0.0, 60.0]


class TestDatabase:
    def test_record_creates_series(self, db):
        assert db.has_series("power")
        assert "power" in db.series_names()

    def test_missing_series_raises(self, db):
        with pytest.raises(TraceError):
            db.series("nope")

    def test_latest_with_default(self, db):
        assert db.latest("nope", default=7.0) == 7.0
        assert db.latest("power") == 9.0

    def test_latest_without_default_raises(self, db):
        with pytest.raises(TraceError):
            db.latest("nope")

    def test_mean(self, db):
        assert db.mean("power", 0.0, 600.0) == pytest.approx(4.5)

    def test_mean_empty_window_is_zero(self, db):
        assert db.mean("power", 10000.0, 20000.0) == 0.0

    def test_total(self, db):
        assert db.total("power", 0.0, 180.0) == pytest.approx(0.0 + 1.0 + 2.0)

    def test_percentile(self, db):
        assert db.percentile("power", 50, 0.0, 600.0) == pytest.approx(4.5)

    def test_percentile_empty_window_is_nan(self, db):
        import math

        assert math.isnan(db.percentile("power", 50, 1e6, 2e6))


class TestPowerIntegration:
    def test_constant_power(self):
        db = TimeSeriesDatabase()
        for i in range(60):
            db.record("p", i * 60.0, 60.0)
        # 60 W held for one hour = 60 Wh.
        assert db.integrate_power_wh("p", 0.0, 3600.0) == pytest.approx(60.0)

    def test_step_power(self):
        db = TimeSeriesDatabase()
        db.record("p", 0.0, 120.0)
        db.record("p", 1800.0, 0.0)
        # 120 W for half an hour, then zero.
        assert db.integrate_power_wh("p", 0.0, 3600.0) == pytest.approx(60.0)

    def test_single_sample(self):
        db = TimeSeriesDatabase()
        db.record("p", 0.0, 60.0)
        assert db.integrate_power_wh("p", 0.0, 60.0) == pytest.approx(1.0)

    def test_empty_window(self):
        db = TimeSeriesDatabase()
        db.record("p", 0.0, 60.0)
        assert db.integrate_power_wh("p", 100.0, 50.0) == 0.0


class TestRowExport:
    def test_to_rows_aligns_series(self):
        db = TimeSeriesDatabase()
        db.record("a", 0.0, 1.0)
        db.record("a", 60.0, 2.0)
        db.record("b", 0.0, 10.0)
        rows = db.to_rows(["a", "b"])
        assert rows[0] == (0.0, 1.0, 10.0)
        assert rows[1] == (60.0, 2.0, 10.0)  # b holds its last value

    def test_to_rows_empty_names(self):
        assert TimeSeriesDatabase().to_rows([]) == []


class TestCachedArrays:
    def test_arrays_cached_between_appends(self):
        series = Series("s")
        series.append(0.0, 1.0)
        first = series.values()
        assert series.values() is first  # cached
        series.append(60.0, 2.0)
        second = series.values()
        assert second is not first  # invalidated by the append
        assert second.tolist() == [1.0, 2.0]

    def test_cached_arrays_are_read_only(self):
        series = Series("s")
        series.append(0.0, 1.0)
        with pytest.raises(ValueError):
            series.values()[0] = 99.0
        with pytest.raises(ValueError):
            series.times()[0] = 99.0

    def test_window_views_reflect_data(self):
        series = Series("s")
        for i in range(5):
            series.append(i * 60.0, float(i))
        times, values = series.window(60.0, 240.0)
        assert times.tolist() == [60.0, 120.0, 180.0]
        assert values.tolist() == [1.0, 2.0, 3.0]

    def test_series_handle_get_or_create(self):
        db = TimeSeriesDatabase()
        handle = db.series_handle("x")
        assert db.series_handle("x") is handle
        handle.append(0.0, 5.0)
        assert db.latest("x") == 5.0


class TestColumnAppend:
    """Series.append_column: one point into each series of a column."""

    def test_appends_one_point_per_series(self):
        column = [Series("a"), Series("b"), Series("c")]
        Series.append_column(column, 60.0, np.array([1.0, 2.5, -0.0]))
        Series.append_column(column, 120.0, [3, 4, 5])
        assert [s.times().tolist() for s in column] == [[60.0, 120.0]] * 3
        assert [s.values().tolist() for s in column] == [
            [1.0, 3.0],
            [2.5, 4.0],
            [-0.0, 5.0],
        ]
        assert all(type(v) is float for s in column for v in s._values)

    @pytest.mark.parametrize("late", [0, 1, 2])
    def test_backwards_point_anywhere_in_the_column_raises(self, late):
        column = [Series("app.a.power_w"), Series("app.b.power_w"), Series("c")]
        Series.append_column(column, 60.0, [1.0, 2.0, 3.0])
        column[late].append(180.0, 9.0)
        with pytest.raises(TraceError) as info:
            Series.append_column(column, 120.0, [4.0, 5.0, 6.0])
        assert f"series {column[late].name!r}" in str(info.value)
        assert "non-monotonic append (120.0 after 180.0)" in str(info.value)
        # Checked before written: no series of the column took the point.
        assert [len(s) for s in column] == [2 if i == late else 1 for i in range(3)]

    def test_equal_times_allowed(self):
        column = [Series("a")]
        Series.append_column(column, 60.0, [1.0])
        Series.append_column(column, 60.0, [2.0])
        assert column[0].values().tolist() == [1.0, 2.0]

    def test_cached_arrays_refresh_after_column_append(self):
        series = Series("s")
        Series.append_column([series], 0.0, [1.0])
        times, values = series.times(), series.values()
        assert series.times() is times and series.values() is values
        Series.append_column([series], 60.0, [2.0])
        assert series.times().tolist() == [0.0, 60.0]
        assert series.values().tolist() == [1.0, 2.0]
        assert times.tolist() == [0.0] and values.tolist() == [1.0]
        series.append(120.0, 3.0)
        assert series.values().tolist() == [1.0, 2.0, 3.0]
        assert not series.values().flags.writeable
