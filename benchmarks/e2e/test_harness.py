"""Checks of the end-to-end benchmark's own arithmetic and contract.

Collected by the tier-1 ``pytest`` run; no workload is executed here.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from e2e_stats import (  # noqa: E402
    Span,
    quantile,
    quantile_guard,
    self_times,
    speed_factor,
    spread,
)
from e2e_workloads import WORKLOADS  # noqa: E402

CONTRACT = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class TestQuantiles:
    def test_interpolates_between_ranks(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert quantile(values, 0) == 1.0
        assert quantile(values, 50) == 3.0
        assert quantile(values, 100) == 5.0
        assert quantile(values, 62.5) == pytest.approx(3.5)

    def test_empty_sample_is_an_error(self):
        with pytest.raises(ValueError):
            quantile([], 50)

    def test_guard_fails_when_the_rank_sits_on_a_step(self):
        # Two modes of equal weight: the median is the step between them.
        sample = [10.0] * 50 + [20.0] * 50
        assert not quantile_guard(sample, 50).ok

    def test_guard_passes_when_the_rank_is_inside_a_mode(self):
        sample = [10.0] * 50 + [20.0] * 50
        guard = quantile_guard(sample, 90)
        assert guard.ok and guard.low == guard.value == guard.high == 20.0
        assert quantile_guard(sample, 25).ok

    def test_guard_tolerates_spread_inside_a_mode(self):
        sample = sorted(10.0 + 0.01 * i for i in range(100))
        assert quantile_guard(sample, 50).ok

    def test_spread_is_interquartile_over_median(self):
        assert spread([10.0] * 10) == 0.0
        assert spread(range(1, 12)) == pytest.approx(6.0 / 6.0)


class TestHostNormalisation:
    def test_reference_speed_is_neutral(self):
        assert speed_factor(80.0, 80.0, ref_ms=80.0) == 1.0

    def test_slow_host_shrinks_timings(self):
        # Calibration took twice the reference: the host ran at half
        # speed, so a 2 s segment counts as 1 s.
        assert 2.0 * speed_factor(150.0, 170.0, ref_ms=80.0) == 1.0

    def test_fast_host_stretches_timings(self):
        assert speed_factor(40.0, 40.0, ref_ms=80.0) == 2.0

    def test_rejects_nonpositive_calibration(self):
        with pytest.raises(ValueError):
            speed_factor(0.0, 80.0)


class TestSelfTimes:
    def test_nested_spans_subtract_their_children(self):
        spans = [
            Span(1, "service.execute", 0.0, 10.0, None, 1),
            Span(2, "core.assign", 1.0, 3.0, 1, 1),
            Span(3, "distributed.run", 4.0, 9.0, 1, 1),
            Span(4, "crypto.seal_envelope", 4.0, 5.0, 3, 1),
        ]
        times = self_times(spans)
        assert times == {1: 3.0, 2: 2.0, 3: 4.0, 4: 1.0}
        assert sum(times.values()) == 10.0

    def test_overlapping_pool_children_share_the_overlap(self):
        # Two fragments on pool threads overlap for 2 s inside a 6 s run.
        spans = [
            Span(1, "distributed.run", 0.0, 6.0, None, 1),
            Span(2, "engine.execute", 1.0, 4.0, 1, 1),
            Span(3, "engine.execute", 2.0, 5.0, 1, 1),
            Span(4, "crypto.encrypt_column", 2.0, 4.0, 3, 1),
        ]
        times = self_times(spans)
        # Children cover [1, 5]; the parent keeps the other 2 s.
        assert times[1] == pytest.approx(2.0)
        # Each child: 1 s alone + half of the shared 2 s = 2 of its 3 s.
        assert times[2] == pytest.approx(2.0)
        # Span 3 passes its 2/3 scale down to its own child.
        assert times[3] == pytest.approx(2.0 / 3.0)
        assert times[4] == pytest.approx(4.0 / 3.0)
        assert sum(times.values()) == pytest.approx(6.0)

    def test_span_with_unknown_parent_is_a_root(self):
        spans = [
            Span(1, "core.assign", 0.0, 1.0, None, 1),
            Span(2, "core.assign", 2.0, 4.0, 99, 2),
        ]
        assert self_times(spans) == {1: 1.0, 2: 2.0}

    def test_child_outliving_its_parent_is_clipped(self):
        spans = [
            Span(1, "distributed.run", 0.0, 2.0, None, 1),
            Span(2, "engine.execute", 1.0, 3.0, 1, 1),
        ]
        assert self_times(spans)[1] == pytest.approx(1.0)


class TestOpSequences:
    @pytest.mark.parametrize("name", list(WORKLOADS))
    def test_sequence_is_a_pure_function_of_the_seed(self, name):
        first, second = WORKLOADS[name](), WORKLOADS[name]()

        def keys(workload, seed):
            return [(op.kind, op.key) for index in range(3)
                    for client in range(workload.clients)
                    for op in workload.round_ops(seed, client, index)]

        assert keys(first, 7) == keys(second, 7)
        assert keys(first, 7) != keys(first, 8)
        assert sorted(keys(first, 7)) == sorted(keys(first, 8))

    def test_round_sizes(self):
        def queries(name):
            ops = WORKLOADS[name]().round_ops(1, 0, 0)
            return sum(1 for op in ops if op.kind == "query"), len(ops)

        assert queries("warm_gateway") == (17, 17)
        assert queries("cold_exec") == (17, 18)
        assert queries("plan_sweep") == (88, 88)
        assert queries("policy_churn") == (60, 70)


class TestContract:
    def test_names_match_the_listing_both_ways(self):
        listing = run.listing()
        for section in ("workloads", "end_to_end", "per_layer"):
            declared = [entry["name"] for entry in CONTRACT[section]]
            assert declared == listing[section], section

    def test_names_are_well_formed_and_unique(self):
        names = [entry["name"] for section in
                 ("workloads", "end_to_end", "per_layer")
                 for entry in CONTRACT[section]]
        assert len(set(names)) == len(names)
        for name in names:
            assert NAME.fullmatch(name), name

    def test_counts_stay_within_the_limits(self):
        assert 2 <= len(CONTRACT["workloads"]) <= 8
        assert 1 <= len(CONTRACT["end_to_end"]) <= 16
        assert 1 <= len(CONTRACT["per_layer"]) <= 128

    def test_units_directions_and_bounds(self):
        for entry in CONTRACT["end_to_end"]:
            unit, better = run.END_TO_END[entry["name"]]
            assert (entry["unit"], entry["better"]) == (unit, better)
            assert 0 < entry["bound"] <= 0.25
        for entry in CONTRACT["per_layer"]:
            assert (entry["unit"], entry["better"]) == \
                run.PER_LAYER[entry["name"]]
        setup = next(entry for entry in CONTRACT["end_to_end"]
                     if entry["name"] == "setup_s")
        assert (setup["unit"], setup["better"]) == ("s", "lower")
        assert setup["bound"] == max(
            entry["bound"] for entry in CONTRACT["end_to_end"])

    def test_workloads_carry_their_why(self):
        for entry in CONTRACT["workloads"]:
            assert entry["why"] == WORKLOADS[entry["name"]].why
            assert len(entry["why"]) <= 200

    def test_exact_counters_and_self_times_are_per_layer_metrics(self):
        assert set(run.EXACT) <= set(run.PER_LAYER)
        assert set(run.SELF_TIME_METRICS.values()) <= set(run.PER_LAYER)
        from e2e_trace import SPAN_NAMES

        assert set(run.SELF_TIME_METRICS) | {"parallel.map_chunks"} == \
            set(SPAN_NAMES)
