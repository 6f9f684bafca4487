"""Histograms and the text exposition: semantics and format validity."""

from __future__ import annotations

import threading

import pytest

from helpers import parse_prometheus
from repro.obs.metrics import Histogram, render


def test_histogram_buckets_cumulative_and_quantile():
    histogram = Histogram(buckets=(0.01, 0.1, 1.0))
    for value in (0.005, 0.005, 0.05, 0.5, 5.0):
        histogram.observe(value)
    snap = histogram.snapshot()
    assert snap["count"] == 5
    assert snap["sum"] == pytest.approx(5.56)
    assert [count for _, count in snap["buckets"]] == [2, 3, 4, 5]
    assert histogram.quantile(0.5) == 0.1
    assert histogram.quantile(1.0) == float("inf")
    assert Histogram(buckets=(1.0,)).quantile(0.95) == 0.0
    with pytest.raises(ValueError):
        histogram.quantile(1.5)


def test_observation_on_bucket_boundary_is_le():
    histogram = Histogram(buckets=(1.0, 2.0))
    histogram.observe(1.0)
    assert [count for _, count in histogram.snapshot()["buckets"]][0] == 1


def test_render_is_valid_exposition():
    histogram = Histogram(buckets=(0.5,))
    histogram.observe(0.1)
    families = parse_prometheus(render([
        ("a_total", "counter", "with \"quotes\" and \\ slash\nand a line",
         ("t",), {('va"l\\ue\nx',): 1}),
        ("b", "gauge", "plain", (), {(): 2}),
        ("c_seconds", "histogram", "hist", ("t",), {("x",): histogram}),
        ("d_total", "counter", "nothing yet", ("t",), {}),
    ]))
    assert set(families) == {"a_total", "b", "c_seconds", "d_total"}
    assert families["a_total"]["type"] == "counter"
    assert families["a_total"]["help"] == \
        'with "quotes" and \\\\ slash\\nand a line'
    (name, labels, value), = families["a_total"]["samples"]
    assert labels == {"t": r'va\"l\\ue\nx'} and value == 1.0
    assert families["b"]["samples"] == [("b", {}, 2.0)]
    assert families["c_seconds"]["type"] == "histogram"
    assert families["c_seconds"]["samples"][-1] == (
        "c_seconds_count", {"t": "x"}, 1.0)
    assert families["d_total"]["samples"] == []


def test_render_sorts_families_by_name_and_samples_by_labels():
    text = render([
        ("z_total", "counter", "last", ("t",),
         {("b",): 2, ("a",): 1}),
        ("a", "gauge", "first", ("s", "t"),
         {("y", "1"): 0, ("x", "2"): 0, ("x", "1"): 0}),
    ])
    samples = [line for line in text.splitlines()
               if not line.startswith("#")]
    assert samples == [
        'a{s="x",t="1"} 0.0', 'a{s="x",t="2"} 0.0', 'a{s="y",t="1"} 0.0',
        'z_total{t="a"} 1.0', 'z_total{t="b"} 2.0',
    ]
    assert text.index("# HELP a first") < text.index("# HELP z_total last")


def test_thread_safety_of_increments():
    histogram = Histogram(buckets=(0.5,))

    def work():
        for _ in range(1000):
            histogram.observe(0.1)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    snap = histogram.snapshot()
    assert snap["count"] == 8000
    assert [count for _, count in snap["buckets"]] == [8000, 8000]
