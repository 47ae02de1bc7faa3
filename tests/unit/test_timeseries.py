"""Time-series database: recording, windows, aggregation, integration."""

import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def append_column(db, names, time_s, values):
    """A one-tick frame: the point ``(time_s, values[k])`` to ``names[k]``."""
    n = len(names)
    db.append_frame(names, range(n + 1), [time_s] * n, values)


class TestColumnAppend:
    """TimeSeriesDatabase.append_frame: a one-tick frame appends one
    point into each series of a column."""

    def test_appends_one_point_per_series(self):
        db = TimeSeriesDatabase()
        names = ["a", "b", "c"]
        append_column(db, names, 60.0, np.array([1.0, 2.5, -0.0]))
        append_column(db, names, 120.0, [3, 4, 5])
        column = [db.series(name) for name in names]
        assert [s.times().tolist() for s in column] == [[60.0, 120.0]] * 3
        assert [s.values().tolist() for s in column] == [
            [1.0, 3.0],
            [2.5, 4.0],
            [-0.0, 5.0],
        ]
        assert all(s.values().dtype == np.float64 for s in column)
        assert all(type(s.latest()[1]) is float for s in column)

    @pytest.mark.parametrize("late", [0, 1, 2])
    def test_backwards_point_anywhere_in_the_column_raises(self, late):
        db = TimeSeriesDatabase()
        names = ["app.a.power_w", "app.b.power_w", "c"]
        append_column(db, names, 60.0, [1.0, 2.0, 3.0])
        db.series_handle(names[late]).append(180.0, 9.0)
        with pytest.raises(TraceError) as info:
            append_column(db, names, 120.0, [4.0, 5.0, 6.0])
        assert f"series {names[late]!r}" in str(info.value)
        assert "non-monotonic append (120.0 after 180.0)" in str(info.value)
        # Checked before written: no series of the column took the point.
        lengths = [len(db.series(name)) for name in names]
        assert lengths == [2 if i == late else 1 for i in range(3)]

    def test_equal_times_allowed(self):
        db = TimeSeriesDatabase()
        append_column(db, ["a"], 60.0, [1.0])
        append_column(db, ["a"], 60.0, [2.0])
        assert db.series("a").values().tolist() == [1.0, 2.0]

    def test_cached_arrays_refresh_after_column_append(self):
        db = TimeSeriesDatabase()
        append_column(db, ["s"], 0.0, [1.0])
        series = db.series("s")
        times, values = series.times(), series.values()
        assert series.times() is times and series.values() is values
        append_column(db, ["s"], 60.0, [2.0])
        assert series.times().tolist() == [0.0, 60.0]
        assert series.values().tolist() == [1.0, 2.0]
        assert times.tolist() == [0.0] and values.tolist() == [1.0]
        series.append(120.0, 3.0)
        assert series.values().tolist() == [1.0, 2.0, 3.0]
        assert not series.values().flags.writeable


class TestFrames:
    """Multi-tick frames: column-major stretches, tails in between."""

    def test_each_series_adopts_a_read_only_stretch(self):
        db = TimeSeriesDatabase()
        times = np.concatenate([np.arange(30) * 60.0, np.arange(18) * 60.0 + 60.0])
        values = np.arange(48.0)
        db.append_frame(["a", "b", "c"], [0, 30, 48, 48], times, values)
        a, b = db.series("a"), db.series("b")
        assert a.values().tolist() == values[:30].tolist()
        assert b.values().tolist() == values[30:].tolist()
        assert b.times().tolist() == times[30:].tolist()
        assert not db.has_series("c")  # an empty stretch creates nothing
        assert a.values().base is values and b.times().base is times
        assert not values.flags.writeable  # adopted, not copied

    def test_a_frame_of_few_ticks_is_copied_into_the_tails(self):
        db = TimeSeriesDatabase()
        times, values = np.array([0.0, 60.0, 0.0, 60.0]), np.arange(4.0)
        db.append_frame(["a", "b"], [0, 2, 4], times, values)
        a, b = db.series("a"), db.series("b")
        assert a.values().tolist() == [0.0, 1.0] and b.values().tolist() == [2.0, 3.0]
        assert a.times().tolist() == [0.0, 60.0] == b.times().tolist()
        assert values.flags.writeable and times.flags.writeable  # copied
        assert not a.values().flags.writeable

    def test_unread_chunks_stay_logarithmic(self):
        """A series written back many times and never read keeps each
        chunk more than twice as long as the next."""
        db = TimeSeriesDatabase()
        series = db.series_handle("s")
        want, t = [], 0.0
        for k in range(300):
            n = 16 + k % 7
            times = t + 60.0 * np.arange(n)
            db.append_frame(["s"], [0, n], times, 2.0 * times)
            want.extend(times.tolist())
            t = want[-1] + 60.0
            if k % 50 == 49:  # a per-point write between frames
                series.append(t, 2.0 * t)
                want.append(t)
                t += 60.0
            lengths = [len(chunk[0]) for chunk in series._chunks]
            assert all(a > 2 * b for a, b in zip(lengths, lengths[1:]))
        assert len(lengths) <= math.log2(len(series)) + 1
        assert series.times().tolist() == want
        assert series.values().tolist() == [2.0 * x for x in want]

    def test_tail_and_frames_interleave_in_time_order(self):
        db = TimeSeriesDatabase()
        series = db.series_handle("s")
        series.append(0.0, 1.0)
        db.append_frame(["s"], [0, 2], [60.0, 120.0], [2.0, 3.0])
        series.append(180.0, 4.0)
        series.append(240.0, 5.0)
        db.append_frame(["s"], [0, 1], [300.0], [6.0])
        assert len(series) == 6
        assert series.latest() == (300.0, 6.0)
        assert series.values().tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert series.times().tolist() == [0.0, 60.0, 120.0, 180.0, 240.0, 300.0]
        # The first read concatenated the chunks once; later reads reuse it.
        assert series.values() is series.values() and series.times() is series.times()
        with pytest.raises(TraceError, match=r"\(200.0 after 300.0\)"):
            series.append(200.0, 0.0)

    def test_first_series_stepping_back_raises_and_nothing_is_written(self):
        db = TimeSeriesDatabase()
        db.record("b", 100.0, 0.0)
        with pytest.raises(TraceError) as info:
            db.append_frame(
                ["a", "b", "c"], [0, 2, 3, 5], [0.0, 60.0, 90.0, 60.0, 30.0], np.zeros(5)
            )
        assert str(info.value) == "series 'b': non-monotonic append (90.0 after 100.0)"
        with pytest.raises(TraceError) as info:
            db.append_frame(["a", "c"], [0, 3, 5], [0.0, 60.0, 30.0, 9.0, 0.0], np.zeros(5))
        assert str(info.value) == "series 'a': non-monotonic append (30.0 after 60.0)"
        assert db.series_names() == ["b"] and len(db.series("b")) == 1

    def test_empty_frames_write_nothing(self):
        db = TimeSeriesDatabase()
        db.append_frame(["a"], [0, 0], [], [])
        db.append_frame([], [0], [], [])
        assert db.series_names() == []


# ----------------------------------------------------------------------
# Oracle: the database against plain per-series lists
# ----------------------------------------------------------------------
ORACLE_NAMES = ("a", "b", "c")

#: One series' run of time steps in a frame: a few, or (after a few)
#: enough that a frame of such runs is adopted as chunks rather than
#: copied into the tails.
ORACLE_RUNS = st.lists(st.integers(min_value=-1, max_value=3), max_size=4).flatmap(
    lambda head: st.sampled_from([head, head + [1] * 16])
)

#: One write or read.  Times are multiples of 30 s (a drawn step of 0
#: repeats the last time, which is allowed); "back" steps backwards.
ORACLE_STEPS = st.one_of(
    st.tuples(
        st.sampled_from(["record", "handle", "back"]),
        st.sampled_from(ORACLE_NAMES),
        st.integers(min_value=0, max_value=3),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    ),
    # A frame, as the columnar write-back appends them: some series,
    # each with its own run of time steps from its last point (a
    # negative step lands a decreasing time).
    st.tuples(
        st.just("frame"),
        st.lists(st.sampled_from(ORACLE_NAMES), min_size=1, max_size=3, unique=True),
        st.lists(ORACLE_RUNS, min_size=3, max_size=3),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    ),
    st.tuples(
        st.just("read"),
        st.sampled_from(ORACLE_NAMES),
        st.integers(min_value=-2, max_value=40),
        st.integers(min_value=-2, max_value=40),
    ),
)


class _Lists:
    """The reference store: one pair of plain lists per series."""

    def __init__(self):
        self.points = {}

    def last(self, name):
        times = self.points.get(name, ([], []))[0]
        return times[-1] if times else None

    def append(self, name, time_s, value):
        times, values = self.points.setdefault(name, ([], []))
        times.append(time_s)
        values.append(value)

    def window(self, name, start, end):
        times, values = self.points[name]
        picked = [i for i, t in enumerate(times) if start <= t < end]
        return [times[i] for i in picked], [values[i] for i in picked]


def _reference_integral(times, values, end):
    """``integrate_power_wh``'s documented left-rectangle rule."""
    if not times:
        return 0.0
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(t) == 1:
        return float(v[0] * (end - t[0]) / 3600.0)
    energy = float(np.dot(v[:-1], np.diff(t)) + v[-1] * (end - t[-1]))
    return energy / 3600.0


def _reference_rows(ref, names):
    base_t, base_v = ref.points[names[0]]
    rows = []
    for i, t in enumerate(base_t):
        row = [t, base_v[i]]
        for name in names[1:]:
            times, values = ref.points[name]
            idx = min(bisect.bisect_right(times, t) - 1, len(times) - 1)
            row.append(values[idx] if idx >= 0 else float("nan"))
        rows.append(tuple(row))
    return rows


def _same(rows, want):
    """Equal rows, counting NaN equal to NaN (to_rows pads with NaN)."""
    return len(rows) == len(want) and all(
        len(row) == len(ref_row)
        and all(x == y or (math.isnan(x) and math.isnan(y)) for x, y in zip(row, ref_row))
        for row, ref_row in zip(rows, want)
    )


def _check_reads(db, ref, name, lo, hi):
    """Every read of ``name`` (and the cross-series export) vs the lists."""
    if name not in ref.points:
        assert not db.has_series(name)
        assert db.latest(name, default=-7.0) == -7.0
        with pytest.raises(TraceError, match="no such series"):
            db.series(name)
        return
    times, values = ref.points[name]
    series = db.series(name)
    assert len(series) == len(times)
    assert series.latest() == (times[-1], values[-1])
    assert db.latest(name) == values[-1]
    assert series.times().tolist() == times
    assert series.values().tolist() == values
    assert not series.values().flags.writeable
    start, end = lo * 30.0 - 15.0, hi * 30.0
    want_t, want_v = ref.window(name, start, end)
    got_t, got_v = db.window(name, start, end)
    assert got_t.tolist() == want_t and got_v.tolist() == want_v
    arr = np.asarray(want_v, dtype=float)
    assert db.mean(name, start, end) == (float(arr.mean()) if want_v else 0.0)
    assert db.total(name, start, end) == float(arr.sum())
    if want_v:
        assert db.percentile(name, 90, start, end) == float(np.percentile(arr, 90))
    else:
        assert math.isnan(db.percentile(name, 90, start, end))
    assert db.integrate_power_wh(name, start, end) == _reference_integral(want_t, want_v, end)
    names = [name] + sorted(n for n in ref.points if n != name)
    assert _same(db.to_rows(names), _reference_rows(ref, names))
    assert db.series_names() == sorted(ref.points)


class TestPlainListOracle:
    """Random non-decreasing writes, interleaved with reads, read back
    exactly as plain per-series lists hold them; the first write that
    steps back in time raises ``append``'s message and writes nothing."""

    @settings(max_examples=150, deadline=None)
    @given(steps=st.lists(ORACLE_STEPS, max_size=40))
    def test_reads_match_plain_lists(self, steps):
        db, ref = TimeSeriesDatabase(), _Lists()
        for kind, name, a, b in steps:
            if kind == "frame":
                if not self._frame(db, ref, name, a, b):
                    return
                continue
            if kind == "read":
                _check_reads(db, ref, name, min(a, b), max(a, b))
                continue
            last = ref.last(name)
            if kind == "back" and last is not None:
                time_s = last - 30.0 * (a + 1)
                with pytest.raises(TraceError) as info:
                    db.record(name, time_s, b)
                assert str(info.value) == (
                    f"series {name!r}: non-monotonic append "
                    f"({time_s} after {last})"
                )
                _check_reads(db, ref, name, -2, 40)
                return
            time_s = (last if last is not None else 0.0) + 30.0 * a
            if kind == "handle":
                db.series_handle(name).append(time_s, b)
            else:
                db.record(name, time_s, b)
            ref.append(name, time_s, b)
        for name in ORACLE_NAMES:
            _check_reads(db, ref, name, -2, 40)

    @staticmethod
    def _frame(db, ref, names, steps, value):
        """Append one frame; False once it raised (as it must, exactly
        when some series would step back: the first in ``names`` order,
        at its first such point)."""
        bounds, times, error = [0], [], None
        for name, run in zip(names, steps):
            last = ref.last(name)
            time_s = last if last is not None else 0.0
            for step in run:
                time_s += 30.0 * step
                if error is None and last is not None and time_s < last:
                    error = f"series {name!r}: non-monotonic append ({time_s} after {last})"
                times.append(time_s)
                last = time_s
            bounds.append(len(times))
        values = value + np.arange(len(times), dtype=float)
        if error is not None:
            with pytest.raises(TraceError) as info:
                db.append_frame(names, bounds, times, values)
            assert str(info.value) == error
            for name in ORACLE_NAMES:
                _check_reads(db, ref, name, -2, 40)
            return False
        db.append_frame(names, bounds, times, values)
        for k, name in enumerate(names):
            for p in range(bounds[k], bounds[k + 1]):
                ref.append(name, times[p], values[p].item())
        return True
