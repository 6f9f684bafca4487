"""Prometheus text exposition, and the one metric that keeps state.

A scrape is a view: :meth:`~repro.gateway.Gateway.metrics_text` reads
each family at call time from the record that already keeps it (the
ledger, the admission controller, the health registry, the service's
cache counters) and hands them to :func:`render`, which writes the
`Prometheus text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_
without a client-library dependency.  The only state kept here is
:class:`Histogram` — fixed upper-bound buckets, rendered as the
cumulative ``_bucket{le=...}`` series plus ``_sum`` and ``_count`` —
because a latency distribution has no other record to be read from.

A family is a tuple ``(name, kind, help_text, labelnames, samples)``:
``kind`` is ``"counter"``, ``"gauge"`` or ``"histogram"`` and
``samples`` maps a tuple of label values to a number, or to a
:class:`Histogram` in a histogram family.

Examples
--------
>>> waits = Histogram(buckets=(0.1, 1.0))
>>> waits.observe(0.05); waits.observe(5.0)
>>> print(render([
...     ("repro_wait_seconds", "histogram", "Queue wait.", (),
...      {(): waits}),
...     ("repro_queries_total", "counter", "Queries served.",
...      ("tenant",), {("gold",): 3}),
...     ("repro_queue_depth", "gauge", "Queued requests.", (), {(): 4}),
... ]), end="")
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
import threading
from typing import Iterable, Mapping, Sequence

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


class Histogram:
    """Observations counted into fixed buckets (finite, ascending upper
    bounds; ``+Inf`` is implicit).  Thread-safe."""

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
                 ) -> None:
        self._lock = threading.Lock()
        self._upper_bounds = tuple(buckets)
        self._bucket_counts = [0] * (len(self._upper_bounds) + 1)  # +Inf
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

        Returns ``inf`` when the quantile lands in the overflow bucket
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


def _escape(text: str, quote: bool = False) -> str:
    """Backslash and newline escaped; double quotes too in a label
    value."""
    text = text.replace("\\", r"\\").replace("\n", r"\n")
    return text.replace('"', r'\"') if quote else text


def _labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    return "{" + ",".join(f'{name}="{_escape(value, quote=True)}"'
                          for name, value in zip(names, values)) + "}"


def render(families: Iterable[tuple[str, str, str, tuple[str, ...],
                                    Mapping[tuple[str, ...], object]]]
           ) -> str:
    """``families`` in text exposition: families by name, samples by
    label values; a family with no samples still has its HELP and
    TYPE lines."""
    lines: list[str] = []
    for name, kind, help_text, labelnames, samples in sorted(
            families, key=lambda family: family[0]):
        lines.append(f"# HELP {name} {_escape(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        for values, sample in sorted(samples.items()):
            labels = _labels(labelnames, values)
            if kind != "histogram":
                lines.append(f"{name}{labels} {float(sample)!r}")
                continue
            snap = sample.snapshot()
            for bound, cumulative in snap["buckets"]:
                edge = "+Inf" if bound == float("inf") else repr(bound)
                bucket = _labels(labelnames + ("le",), values + (edge,))
                lines.append(f"{name}_bucket{bucket} {cumulative}")
            lines.append(f"{name}_sum{labels} {float(snap['sum'])!r}")
            lines.append(f"{name}_count{labels} {snap['count']}")
    return "".join(f"{line}\n" for line in lines)
