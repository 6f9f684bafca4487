"""A dependency-free Prometheus-style metrics registry.

The production front-end needs counters (admissions, rejections,
credits spent), gauges (queue depths, in-flight queries, breaker
states) and latency histograms (queue wait, query and fragment
latencies) scrapable in the `Prometheus text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_ —
without adding a client-library dependency the container does not
have.  This module implements the minimal consistent subset:

* :class:`Counter` — monotone; ``inc(amount)`` with ``amount >= 0``,
  plus :meth:`Counter.set_total` for *collector-maintained* totals
  mirrored from an external monotone source (cache hit counters,
  breaker trip counts) at scrape time;
* :class:`Gauge` — ``set``/``inc``/``dec``;
* :class:`Histogram` — fixed upper-bound buckets chosen at
  registration; ``observe(value)``; rendered as the standard
  cumulative ``_bucket{le=...}`` series plus ``_sum`` and ``_count``.

Every metric family may declare label names once; children are
obtained with :meth:`MetricFamily.labels` and are created on first
use.  All operations are thread-safe — gateway workers and the
scraping thread all touch the registry concurrently.

Registries also accept *collector callbacks*
(:meth:`MetricsRegistry.register_collector`): callables invoked at the
start of every :meth:`MetricsRegistry.render`, used to mirror
point-in-time snapshots (``health_info()`` breaker states, cache
counters) into gauges and counters right before exposition.

Examples
--------
>>> registry = MetricsRegistry()
>>> served = registry.counter("repro_queries_total",
...                           "Queries served.", labelnames=("tenant",))
>>> served.labels("gold").inc()
>>> served.labels("gold").inc(2)
>>> served.labels("gold").value()
3.0
>>> depth = registry.gauge("repro_queue_depth", "Queued requests.")
>>> depth.set(4)
>>> waits = registry.histogram("repro_wait_seconds", "Queue wait.",
...                            buckets=(0.1, 1.0))
>>> waits.observe(0.05); waits.observe(5.0)
>>> print(registry.render(), end="")
# HELP repro_queries_total Queries served.
# TYPE repro_queries_total counter
repro_queries_total{tenant="gold"} 3.0
# HELP repro_queue_depth Queued requests.
# TYPE repro_queue_depth gauge
repro_queue_depth 4.0
# HELP repro_wait_seconds Queue wait.
# TYPE repro_wait_seconds histogram
repro_wait_seconds_bucket{le="0.1"} 1
repro_wait_seconds_bucket{le="1.0"} 1
repro_wait_seconds_bucket{le="+Inf"} 2
repro_wait_seconds_sum 5.05
repro_wait_seconds_count 2
"""

from __future__ import annotations

import bisect
import re
import threading
from typing import Callable, Iterable, Sequence

#: Metric and label names per the Prometheus data model.
_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default latency buckets (seconds): sub-millisecond cache hits up to
#: multi-second saturated-queue waits.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default buckets for ratios in [0, 1] (e.g. the fraction of a query's
#: deadline budget left at delivery): dense near 0 where queries that
#: barely made it — the early-warning signal for shedding — land.
DEFAULT_FRACTION_BUCKETS = (
    0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0,
)


def _format_value(value: float) -> str:
    """A float in exposition format (``repr`` round-trips exactly)."""
    return repr(float(value))


def _escape_help(text: str) -> str:
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _escape_label_value(text: str) -> str:
    return (text.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _render_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values)
    )
    return "{" + inner + "}"


class Counter:
    """One monotone counter child (a single labelled time series)."""

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up, got inc({amount!r})")
        with self._lock:
            self._value += amount

    def set_total(self, total: float) -> None:
        """Mirror an externally maintained monotone total.

        For collectors copying counters the registry does not own
        (cache hits, breaker trips).  The total may never decrease.
        """
        with self._lock:
            if total < self._value:
                raise ValueError(
                    f"counter total went backwards: "
                    f"{self._value!r} -> {total!r}")
            self._value = total

    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """One gauge child: a value that can go up and down."""

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """One histogram child with fixed, registration-time buckets."""

    def __init__(self, lock: threading.Lock,
                 upper_bounds: tuple[float, ...]) -> None:
        self._lock = lock
        self._upper_bounds = upper_bounds
        self._bucket_counts = [0] * (len(upper_bounds) + 1)  # +Inf last
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self._upper_bounds, value)
        with self._lock:
            self._bucket_counts[index] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> dict[str, object]:
        """Point-in-time copy: cumulative bucket counts, sum, count."""
        with self._lock:
            counts = list(self._bucket_counts)
            total_sum, total_count = self._sum, self._count
        cumulative: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self._upper_bounds + (float("inf"),),
                                counts):
            running += count
            cumulative.append((bound, running))
        return {"buckets": cumulative, "sum": total_sum,
                "count": total_count}

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (the bucket upper bound).

        Good enough for gating tail-latency invariants in benchmarks;
        returns ``inf`` when the quantile lands in the overflow bucket
        and ``0.0`` when nothing was observed.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        snap = self.snapshot()
        count = snap["count"]
        if not count:
            return 0.0
        rank = q * count
        for bound, cumulative in snap["buckets"]:
            if cumulative >= rank:
                return bound
        return float("inf")


class MetricFamily:
    """A named metric with fixed label names and per-labelset children."""

    def __init__(self, name: str, help_text: str, kind: str,
                 labelnames: tuple[str, ...],
                 child_factory: Callable[[threading.Lock], object]) -> None:
        self.name = name
        self.help_text = help_text
        self.kind = kind
        self.labelnames = labelnames
        self._child_factory = child_factory
        self._children: dict[tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def labels(self, *values: str) -> object:
        """The child for this label-value tuple (created on first use)."""
        if len(values) != len(self.labelnames):
            raise ValueError(
                f"{self.name} expects {len(self.labelnames)} label "
                f"value(s) {self.labelnames}, got {values!r}")
        key = tuple(str(value) for value in values)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._child_factory(self._lock)
                self._children[key] = child
        return child

    def _items(self) -> list[tuple[tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())


class _UnlabelledFamily(MetricFamily):
    """A family with no labels behaves as its single child directly."""

    def __init__(self, name: str, help_text: str, kind: str,
                 child_factory: Callable[[threading.Lock], object]) -> None:
        super().__init__(name, help_text, kind, (), child_factory)
        self._children[()] = child_factory(self._lock)

    def __getattr__(self, attribute: str):
        # Delegate inc/set/observe/value/snapshot/... to the sole child.
        return getattr(self._children[()], attribute)


class MetricsRegistry:
    """Owns metric families and renders the text exposition."""

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._collectors: list[Callable[[], None]] = []
        self._lock = threading.Lock()
        #: One scrape's collectors at a time: a collector reads a monotone
        #: source and sets a total, and two interleaved scrapes could set
        #: the older total over the newer one.
        self._collect_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def counter(self, name: str, help_text: str,
                labelnames: Sequence[str] = ()) -> MetricFamily:
        """Register (or fetch the existing) counter family ``name``."""
        return self._register(name, help_text, "counter",
                              tuple(labelnames),
                              lambda lock: Counter(lock))

    def gauge(self, name: str, help_text: str,
              labelnames: Sequence[str] = ()) -> MetricFamily:
        """Register (or fetch the existing) gauge family ``name``."""
        return self._register(name, help_text, "gauge",
                              tuple(labelnames),
                              lambda lock: Gauge(lock))

    def histogram(self, name: str, help_text: str,
                  buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
                  labelnames: Sequence[str] = ()) -> MetricFamily:
        """Register (or fetch the existing) histogram family ``name``.

        ``buckets`` are finite upper bounds; they are sorted, must be
        distinct, and the implicit ``+Inf`` bucket is always appended.
        """
        bounds = tuple(sorted(float(bound) for bound in buckets))
        if not bounds:
            raise ValueError("histograms need at least one finite bucket")
        if len(set(bounds)) != len(bounds):
            raise ValueError(f"duplicate histogram buckets: {bounds}")
        if bounds[-1] == float("inf"):
            raise ValueError("+Inf is implicit; pass finite buckets only")
        return self._register(
            name, help_text, "histogram", tuple(labelnames),
            lambda lock: Histogram(lock, bounds))

    def _register(self, name: str, help_text: str, kind: str,
                  labelnames: tuple[str, ...],
                  child_factory) -> MetricFamily:
        if not _METRIC_NAME.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_NAME.match(label) or label.startswith("__"):
                raise ValueError(f"invalid label name {label!r}")
        if kind == "histogram" and "le" in labelnames:
            raise ValueError("'le' is reserved on histograms")
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind} with labels {family.labelnames}")
                return family
            if labelnames:
                family = MetricFamily(name, help_text, kind, labelnames,
                                      child_factory)
            else:
                family = _UnlabelledFamily(name, help_text, kind,
                                           child_factory)
            self._families[name] = family
            return family

    def register_collector(self, collect: Callable[[], None]) -> None:
        """Run ``collect()`` at the start of every :meth:`render`.

        Collectors mirror externally owned snapshots (health registry,
        cache counters) into this registry's metrics right before the
        scrape, so exported values are point-in-time consistent without
        instrumenting every increment site.
        """
        with self._lock:
            self._collectors.append(collect)

    # ------------------------------------------------------------------
    # Exposition
    # ------------------------------------------------------------------
    def render(self) -> str:
        """The registry in Prometheus text exposition format."""
        with self._lock:
            collectors = list(self._collectors)
        with self._collect_lock:
            for collect in collectors:
                collect()
        with self._lock:
            families = [self._families[name]
                        for name in sorted(self._families)]
        lines: list[str] = []
        for family in families:
            lines.append(f"# HELP {family.name} "
                         f"{_escape_help(family.help_text)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labelvalues, child in family._items():
                if family.kind == "histogram":
                    self._render_histogram(lines, family, labelvalues,
                                           child)
                else:
                    labels = _render_labels(family.labelnames, labelvalues)
                    lines.append(f"{family.name}{labels} "
                                 f"{_format_value(child.value())}")
        return "".join(f"{line}\n" for line in lines)

    @staticmethod
    def _render_histogram(lines: list[str], family: MetricFamily,
                          labelvalues: tuple[str, ...],
                          child: Histogram) -> None:
        snap = child.snapshot()
        names = family.labelnames + ("le",)
        for bound, cumulative in snap["buckets"]:
            bound_text = "+Inf" if bound == float("inf") else repr(bound)
            labels = _render_labels(names, labelvalues + (bound_text,))
            lines.append(f"{family.name}_bucket{labels} {cumulative}")
        plain = _render_labels(family.labelnames, labelvalues)
        lines.append(f"{family.name}_sum{plain} "
                     f"{_format_value(snap['sum'])}")
        lines.append(f"{family.name}_count{plain} {snap['count']}")
