"""Metrics registry: counters, gauges, histograms, families, rendering."""

import math

import pytest

from repro.obs.metrics import (
    CallbackCounter,
    CallbackGauge,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    format_labels,
    format_value,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("requests_total")
        assert c.value == 0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        c = Counter("requests_total")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError, match="invalid metric name"):
            Counter("bad-name")

    def test_family_requires_labels_call(self):
        family = Counter("requests_total", labelnames=("route",))
        with pytest.raises(ValueError, match="family"):
            family.inc()

    def test_labels_cache_children(self):
        family = Counter("requests_total", labelnames=("route",))
        a = family.labels(route="/x")
        a.inc()
        assert family.labels(route="/x") is a
        assert family.labels(route="/x").value == 1

    def test_wrong_label_set_rejected(self):
        family = Counter("requests_total", labelnames=("route",))
        with pytest.raises(ValueError, match="expects labels"):
            family.labels(verb="GET")

    def test_labels_on_plain_metric_rejected(self):
        with pytest.raises(ValueError, match="no labels"):
            Counter("requests_total").labels(route="/x")


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(5)
        g.inc(2)
        g.dec(3)
        assert g.value == 4

    def test_can_go_negative(self):
        g = Gauge("depth")
        g.dec(1.5)
        assert g.value == -1.5


class TestHistogram:
    def test_observe_fills_the_right_bucket(self):
        h = Histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        assert h.bucket_counts() == {0.1: 1, 1.0: 1, math.inf: 1}
        assert h.count == 3
        assert h.sum == pytest.approx(5.55)

    def test_boundary_value_lands_in_its_bucket(self):
        # Prometheus buckets are inclusive upper bounds.
        h = Histogram("lat", buckets=(0.1, 1.0))
        h.observe(0.1)
        assert h.bucket_counts()[0.1] == 1

    def test_exposition_buckets_are_cumulative(self):
        h = Histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        samples = {
            (suffix, labels.get("le")): value
            for suffix, labels, value in h.samples()
        }
        assert samples[("_bucket", "0.1")] == 1
        assert samples[("_bucket", "1")] == 2
        assert samples[("_bucket", "+Inf")] == 3
        assert samples[("_count", None)] == 3

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram("lat", buckets=(1.0, 0.1))

    def test_infinite_bucket_rejected(self):
        # +Inf is implicit; spelling it out would double-count.
        with pytest.raises(ValueError, match="finite"):
            Histogram("lat", buckets=(0.1, math.inf))

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Histogram("lat", buckets=())

    def test_labeled_children_have_independent_counts(self):
        family = Histogram("lat", labelnames=("route",), buckets=(1.0,))
        family.labels(route="/a").observe(0.5)
        assert family.labels(route="/a").count == 1
        assert family.labels(route="/b").count == 0


class TestFormatting:
    def test_integers_render_without_decimal_point(self):
        assert format_value(3.0) == "3"
        assert format_value(0.25) == "0.25"
        assert format_value(math.inf) == "+Inf"
        assert format_value(-math.inf) == "-Inf"
        assert format_value(math.nan) == "NaN"

    def test_labels_sorted_and_escaped(self):
        assert format_labels({}) == ""
        text = format_labels({"b": 'x"y', "a": "p\nq"})
        assert text == '{a="p\\nq",b="x\\"y"}'


class TestRegistry:
    def test_get_or_create_returns_same_metric(self):
        registry = MetricsRegistry()
        first = registry.counter("ticks_total")
        assert registry.counter("ticks_total") is first
        assert registry.get("ticks_total") is first

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_labelname_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x", labelnames=("route",))
        with pytest.raises(ValueError, match="already registered with labels"):
            registry.counter("x", labelnames=("verb",))

    def test_bucket_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError, match="already registered with buckets"):
            registry.histogram("h", buckets=(2.0,))

    def test_callback_metrics_read_at_collect_time(self):
        registry = MetricsRegistry()
        box = {"n": 0}
        registry.counter_fn("drops_total", "", lambda: box["n"])
        box["n"] = 7
        assert "drops_total 7" in registry.render()

    def test_callback_re_registration_repoints_the_function(self):
        # The newest owner wins — how a rebuilt engine takes over the
        # ecovisor's profiler counters.
        registry = MetricsRegistry()
        metric = registry.counter_fn("drops_total", "", lambda: 1)
        assert registry.counter_fn("drops_total", "", lambda: 2) is metric
        assert "drops_total 2" in registry.render()

    def test_callback_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.counter_fn("x", "", lambda: 0)
        registry.gauge("y")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge_fn("y", "", lambda: 0)

    def test_callback_kinds(self):
        assert CallbackCounter("c", "", lambda: 1).kind == "counter"
        assert CallbackGauge("g", "", lambda: 1).kind == "gauge"

    def test_child_samples_carry_const_labels(self):
        root = MetricsRegistry()
        child = root.child(engine="e0")
        child.counter("ticks_total").inc(3)
        assert 'ticks_total{engine="e0"} 3' in root.render()

    def test_nested_children_merge_labels(self):
        root = MetricsRegistry(const_labels={"host": "h1"})
        grandchild = root.child(engine="e0").child(app="a")
        grandchild.counter("x").inc()
        assert 'x{app="a",engine="e0",host="h1"} 1' in root.render()

    def test_same_name_across_children_shares_one_type_block(self):
        root = MetricsRegistry()
        root.child(engine="a").counter("ticks_total").inc()
        root.child(engine="b").counter("ticks_total").inc(2)
        text = root.render()
        assert text.count("# TYPE ticks_total counter") == 1
        assert 'ticks_total{engine="a"} 1' in text
        assert 'ticks_total{engine="b"} 2' in text

    def test_conflicting_kinds_across_children_fail_render(self):
        root = MetricsRegistry()
        root.child(engine="a").counter("x")
        root.child(engine="b").gauge("x")
        with pytest.raises(ValueError, match="conflicting"):
            root.render()

    def test_render_empty_registry(self):
        assert MetricsRegistry().render() == ""

    def test_render_is_deterministic(self):
        registry = MetricsRegistry()
        registry.counter("b_total").inc()
        registry.counter("a_total").inc()
        assert registry.render() == registry.render()
        names = [
            line.split()[2]
            for line in registry.render().splitlines()
            if line.startswith("# TYPE")
        ]
        assert names == sorted(names)

    def test_default_registry_is_a_singleton(self):
        assert default_registry() is default_registry()
