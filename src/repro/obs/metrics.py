"""A Prometheus-style metrics registry for the single-threaded hot path.

Three metric kinds, matching the Prometheus exposition model:

- :class:`Counter` — a monotone total (``inc`` rejects negative deltas).
- :class:`Gauge` — a value that can go up and down.
- :class:`Histogram` — fixed buckets chosen at construction; the bucket
  counts live in one preallocated numpy ``int64`` array, so recording a
  sample is a bisect over a small tuple of bounds plus **one index
  increment** — no allocation, no locks (the tick loop is
  single-threaded by design).

Every metric kind supports Prometheus labels: constructed with
``labelnames``, a metric is a *family* and ``labels(**values)`` returns
(and caches) the concrete child series.  Derived values that are kept as
plain attributes on their owning objects (journal drop counts, trace
cache hits, columnar row reuse) are exposed through *callback* metrics —
:class:`CallbackCounter` / :class:`CallbackGauge` read a function at
collect time, so the owning hot path pays nothing for being observable.

Registries nest: :meth:`MetricsRegistry.child` creates a registry whose
samples carry constant labels and are included in the parent's
exposition — the process-wide :func:`default_registry` at the root,
per-engine registries below it.  :meth:`MetricsRegistry.render` emits
the Prometheus text format (``# HELP`` / ``# TYPE`` / samples, with
cumulative histogram buckets), which ``GET /v1/metrics`` serves.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

# Prometheus data-model charsets (https://prometheus.io/docs/concepts/data_model/).
_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (seconds), the Prometheus client default.
DEFAULT_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Buckets sized for tick phases: tens of microseconds up to seconds.
TICK_PHASE_BUCKETS = (
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5,
)


def _check_metric_name(name: str) -> str:
    if not _METRIC_NAME_RE.match(name):
        raise ValueError(f"invalid metric name: {name!r}")
    return name


def _check_label_names(labelnames: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(labelnames)
    for label in names:
        if not _LABEL_NAME_RE.match(label) or label.startswith("__"):
            raise ValueError(f"invalid label name: {label!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate label names: {names!r}")
    return names


def format_value(value: float) -> str:
    """One sample value in exposition form (integers without the ``.0``)."""
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def format_labels(labels: Mapping[str, str]) -> str:
    """``{a="x",b="y"}`` (keys sorted for deterministic output), or ''."""
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(str(labels[key]))}"'
        for key in sorted(labels)
    )
    return "{" + inner + "}"


#: One exposition sample: (name suffix, labels, value).  The suffix is
#: appended to the metric name ("" for counters/gauges; "_bucket",
#: "_sum", "_count" for histograms).
Sample = Tuple[str, Dict[str, str], float]


class Metric:
    """Base of all metric kinds; a family when ``labelnames`` is set."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        self.name = _check_metric_name(name)
        self.help = help
        self.labelnames = _check_label_names(labelnames)
        self._children: Dict[Tuple[str, ...], "Metric"] = {}

    # -- family plumbing ------------------------------------------------
    def labels(self, **labelvalues: Any) -> "Metric":
        """The concrete child series for one label-value combination."""
        if not self.labelnames:
            raise ValueError(f"metric {self.name!r} has no labels")
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[label]) for label in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child()
        return child

    def _make_child(self) -> "Metric":
        raise NotImplementedError

    def _require_leaf(self) -> None:
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} is a family; select a series "
                f"with .labels(...) first"
            )

    # -- exposition -----------------------------------------------------
    def samples(self) -> Iterator[Sample]:
        """Every sample of this metric (family children included)."""
        if self.labelnames:
            for key in sorted(self._children):
                child = self._children[key]
                labels = dict(zip(self.labelnames, key))
                for suffix, extra, value in child.samples():
                    yield suffix, {**labels, **extra}, value
        else:
            yield from self._leaf_samples()

    def _leaf_samples(self) -> Iterator[Sample]:
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def _make_child(self) -> "Counter":
        return Counter(self.name, self.help)

    def inc(self, amount: float = 1.0) -> None:
        self._require_leaf()
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount})")
        self._value += amount

    @property
    def value(self) -> float:
        self._require_leaf()
        return self._value

    def _leaf_samples(self) -> Iterator[Sample]:
        yield "", {}, self._value


class Gauge(Metric):
    """A value that can rise and fall."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        super().__init__(name, help, labelnames)
        self._value = 0.0

    def _make_child(self) -> "Gauge":
        return Gauge(self.name, self.help)

    def set(self, value: float) -> None:
        self._require_leaf()
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._require_leaf()
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._require_leaf()
        self._value -= amount

    @property
    def value(self) -> float:
        self._require_leaf()
        return self._value

    def _leaf_samples(self) -> Iterator[Sample]:
        yield "", {}, self._value


class Histogram(Metric):
    """Fixed-bucket histogram; one preallocated count array per series.

    ``buckets`` are the inclusive upper bounds (ascending, finite); the
    implicit ``+Inf`` bucket is always present.  :meth:`observe` is the
    hot-path call: a bisect over the bounds tuple and a single numpy
    index increment.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError(f"histogram {name!r} buckets must be finite")
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(
                f"histogram {name!r} buckets must be strictly ascending"
            )
        self.bounds = bounds
        # len(bounds) + 1: the trailing slot is the +Inf overflow bucket.
        self._counts = np.zeros(len(bounds) + 1, dtype=np.int64)
        self._sum = 0.0
        self._count = 0

    def _make_child(self) -> "Histogram":
        return Histogram(self.name, self.help, buckets=self.bounds)

    def observe(self, value: float) -> None:
        self._counts[bisect_left(self.bounds, value)] += 1
        self._sum += value
        self._count += 1

    @property
    def sum(self) -> float:
        self._require_leaf()
        return self._sum

    @property
    def count(self) -> int:
        self._require_leaf()
        return self._count

    def bucket_counts(self) -> Dict[float, int]:
        """Per-bucket (non-cumulative) counts, ``inf`` last."""
        self._require_leaf()
        counts = self._counts.tolist()
        return dict(zip((*self.bounds, math.inf), counts))

    def _leaf_samples(self) -> Iterator[Sample]:
        cumulative = 0
        for bound, count in zip(self.bounds, self._counts):
            cumulative += int(count)
            yield "_bucket", {"le": format_value(bound)}, float(cumulative)
        yield "_bucket", {"le": "+Inf"}, float(self._count)
        yield "_sum", {}, self._sum
        yield "_count", {}, float(self._count)


class CallbackCounter(Metric):
    """A counter whose total is read from a function at collect time.

    For monotone figures kept as plain attributes on hot-path objects
    (journal drops, cache hits): the owner pays one integer increment,
    the registry reads it only when scraped.
    """

    kind = "counter"

    def __init__(self, name: str, help: str, fn: Callable[[], float]):
        super().__init__(name, help)
        self.fn = fn

    def _leaf_samples(self) -> Iterator[Sample]:
        yield "", {}, float(self.fn())


class CallbackGauge(Metric):
    """A gauge whose value is read from a function at collect time."""

    kind = "gauge"

    def __init__(self, name: str, help: str, fn: Callable[[], float]):
        super().__init__(name, help)
        self.fn = fn

    def _leaf_samples(self) -> Iterator[Sample]:
        yield "", {}, float(self.fn())


class MetricsRegistry:
    """A named collection of metrics, optionally nested under a parent.

    All registration methods are **get-or-create**: asking for an
    existing name returns the existing metric (after checking the kind
    and label names agree), so independent consumers — two engines over
    one ecovisor, a re-wired REST server — can share series instead of
    colliding.  Callback metrics are get-or-*replace*: the newest
    owner's function wins, matching how the newest engine owns the
    ecovisor's profiler.
    """

    def __init__(self, const_labels: Optional[Mapping[str, str]] = None):
        if const_labels:
            _check_label_names(tuple(const_labels))
        self._const_labels: Dict[str, str] = dict(const_labels or {})
        self._metrics: Dict[str, Metric] = {}
        self._children: List["MetricsRegistry"] = []

    @property
    def const_labels(self) -> Dict[str, str]:
        return dict(self._const_labels)

    def child(self, **const_labels: str) -> "MetricsRegistry":
        """A nested registry whose samples carry ``const_labels``.

        Children are included in this registry's :meth:`collect` and
        :meth:`render`; their constant labels are merged into every
        sample (child values win on collision).
        """
        merged = {**self._const_labels, **const_labels}
        child = MetricsRegistry(const_labels=merged)
        self._children.append(child)
        return child

    # -- registration ---------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind} "
                    f"({type(existing).__name__})"
                )
            requested = kwargs.get("labelnames", ())
            if tuple(requested) != existing.labelnames:
                raise ValueError(
                    f"metric {name!r} already registered with labels "
                    f"{existing.labelnames}, requested {tuple(requested)}"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames=labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames=labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = self._get_or_create(
            Histogram, name, help, labelnames=labelnames, buckets=buckets
        )
        if metric.bounds != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {name!r} already registered with buckets "
                f"{metric.bounds}"
            )
        return metric

    def counter_fn(
        self, name: str, help: str, fn: Callable[[], float]
    ) -> CallbackCounter:
        """Register (or re-point) a collect-time counter callback."""
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not CallbackCounter:
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            existing.fn = fn
            return existing
        metric = CallbackCounter(name, help, fn)
        self._metrics[name] = metric
        return metric

    def gauge_fn(
        self, name: str, help: str, fn: Callable[[], float]
    ) -> CallbackGauge:
        """Register (or re-point) a collect-time gauge callback."""
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not CallbackGauge:
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            existing.fn = fn
            return existing
        metric = CallbackGauge(name, help, fn)
        self._metrics[name] = metric
        return metric

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    # -- exposition -----------------------------------------------------
    def collect(self) -> Iterator[Tuple[Metric, Dict[str, str]]]:
        """Every metric in this registry and its descendants.

        Yields ``(metric, const_labels)`` pairs; the labels are the
        owning registry's constant labels, merged into each sample at
        render time.
        """
        for metric in self._metrics.values():
            yield metric, self._const_labels
        for child in self._children:
            yield from child.collect()

    def render(self) -> str:
        """The registry in Prometheus text exposition format.

        Metrics sharing a name across nested registries are merged into
        one ``# TYPE`` block (their kinds must agree); samples are
        ordered name-major, label-minor, deterministically.
        """
        families: Dict[str, Tuple[str, str, List[Tuple[str, str, float]]]] = {}
        for metric, const_labels in self.collect():
            kind, help_text, rows = families.setdefault(
                metric.name, (metric.kind, metric.help, [])
            )
            if kind != metric.kind:
                raise ValueError(
                    f"metric {metric.name!r} registered with conflicting "
                    f"kinds: {kind} vs {metric.kind}"
                )
            for suffix, labels, value in metric.samples():
                merged = {**const_labels, **labels}
                rows.append((suffix, format_labels(merged), value))
        lines: List[str] = []
        for name in sorted(families):
            kind, help_text, rows = families[name]
            if help_text:
                escaped = help_text.replace("\\", r"\\").replace("\n", r"\n")
                lines.append(f"# HELP {name} {escaped}")
            lines.append(f"# TYPE {name} {kind}")
            for suffix, label_text, value in rows:
                lines.append(f"{name}{suffix}{label_text} {format_value(value)}")
        return "\n".join(lines) + "\n" if lines else ""


_DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide root registry.

    Engine-scoped metrics live in per-ecovisor registries (each
    :class:`~repro.core.ecovisor.Ecovisor` creates its own unless handed
    one), so test and sweep runs do not leak series into this root;
    pass ``metrics=default_registry().child(...)`` to attach an engine's
    series to the process-wide exposition.
    """
    return _DEFAULT_REGISTRY
