"""The metrics registry: semantics and exposition-format validity."""

from __future__ import annotations

import itertools
import sys
import threading
import time

import pytest

from helpers import parse_prometheus
from repro.obs.metrics import MetricsRegistry


def test_counter_is_monotone():
    registry = MetricsRegistry()
    counter = registry.counter("c_total", "help")
    counter.inc()
    counter.inc(2.5)
    assert counter.value() == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1)
    counter.set_total(10.0)
    with pytest.raises(ValueError):
        counter.set_total(9.0)


def test_gauge_moves_both_ways():
    registry = MetricsRegistry()
    gauge = registry.gauge("g", "help")
    gauge.set(4)
    gauge.inc()
    gauge.dec(2)
    assert gauge.value() == 3.0


def test_labelled_children_are_distinct_and_cached():
    registry = MetricsRegistry()
    family = registry.counter("seen_total", "help", labelnames=("tenant",))
    family.labels("a").inc()
    family.labels("a").inc()
    family.labels("b").inc()
    assert family.labels("a").value() == 2.0
    assert family.labels("b").value() == 1.0
    with pytest.raises(ValueError):
        family.labels("a", "extra")


def test_redeclaration_is_idempotent_but_type_checked():
    registry = MetricsRegistry()
    first = registry.counter("x_total", "help")
    assert registry.counter("x_total", "help") is first
    with pytest.raises(ValueError):
        registry.gauge("x_total", "help")
    with pytest.raises(ValueError):
        registry.counter("x_total", "help", labelnames=("other",))


def test_invalid_names_rejected():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.counter("0bad", "help")
    with pytest.raises(ValueError):
        registry.counter("ok_total", "help", labelnames=("bad-label",))
    with pytest.raises(ValueError):
        registry.histogram("h", "help", buckets=())
    with pytest.raises(ValueError):
        registry.histogram("h", "help", buckets=(1.0, 1.0))
    with pytest.raises(ValueError):
        registry.histogram("h", "help", buckets=(1.0, float("inf")))
    with pytest.raises(ValueError):
        registry.histogram("h", "help", buckets=(1.0,), labelnames=("le",))


def test_histogram_buckets_cumulative_and_quantile():
    registry = MetricsRegistry()
    histogram = registry.histogram("lat_seconds", "help",
                                   buckets=(0.01, 0.1, 1.0))
    for value in (0.005, 0.005, 0.05, 0.5, 5.0):
        histogram.observe(value)
    snap = histogram.snapshot()
    assert snap["count"] == 5
    assert snap["sum"] == pytest.approx(5.56)
    assert [count for _, count in snap["buckets"]] == [2, 3, 4, 5]
    assert histogram.quantile(0.5) == 0.1
    assert histogram.quantile(1.0) == float("inf")
    empty = registry.histogram("empty_seconds", "help", buckets=(1.0,))
    assert empty.quantile(0.95) == 0.0


def test_observation_on_bucket_boundary_is_le():
    registry = MetricsRegistry()
    histogram = registry.histogram("h_seconds", "help", buckets=(1.0, 2.0))
    histogram.observe(1.0)
    assert [count for _, count in histogram.snapshot()["buckets"]][0] == 1


def test_render_is_valid_exposition():
    registry = MetricsRegistry()
    registry.counter("a_total", "with \"quotes\" and \\ slash",
                     labelnames=("t",)).labels('va"l\\ue').inc()
    registry.gauge("b", "plain").set(2)
    registry.histogram("c_seconds", "hist", buckets=(0.5,),
                       labelnames=("t",)).labels("x").observe(0.1)
    families = parse_prometheus(registry.render())
    assert set(families) == {"a_total", "b", "c_seconds"}
    assert families["a_total"]["type"] == "counter"
    (name, labels, value), = families["a_total"]["samples"]
    assert labels == {"t": r"va\"l\\ue"} and value == 1.0
    assert families["c_seconds"]["type"] == "histogram"


def test_collectors_run_at_render_time():
    registry = MetricsRegistry()
    gauge = registry.gauge("depth", "help")
    state = {"depth": 0}
    registry.register_collector(lambda: gauge.set(state["depth"]))
    state["depth"] = 7
    families = parse_prometheus(registry.render())
    assert families["depth"]["samples"][0][2] == 7.0


def test_concurrent_scrapes_never_move_a_derived_total_backwards():
    """A collector reads a monotone source and sets a counter's total;
    two scrapes interleaving the read and the set would set an older
    total over a newer one and raise."""
    registry = MetricsRegistry()
    counter = registry.counter("events_total", "help")
    source = itertools.count(1)

    def collect():
        total = next(source)
        time.sleep(0)  # yield between the read and the set
        counter.set_total(total)

    registry.register_collector(collect)
    failures = []

    def scrape():
        try:
            for _ in range(200):
                registry.render()
        except ValueError as error:
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=scrape) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert counter.value() == 1600.0


def test_thread_safety_of_increments():
    registry = MetricsRegistry()
    counter = registry.counter("n_total", "help")
    histogram = registry.histogram("h_seconds", "help", buckets=(0.5,))

    def work():
        for _ in range(1000):
            counter.inc()
            histogram.observe(0.1)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert counter.value() == 8000.0
    assert histogram.snapshot()["count"] == 8000
