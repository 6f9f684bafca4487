#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload NAME|all [--seed N]
        [--seconds S] [--trace 0|1] [--json OUT]
    python3 benchmarks/e2e/run.py --list
    python3 benchmarks/e2e/run.py --selfcheck [K]

One named workload runs in this process; ``all`` and ``--selfcheck`` run
each workload in a fresh subprocess, one after another.  With
``--trace 0`` a run reports the end-to-end metrics, with ``--trace 1``
the per-layer ones (micro-timings, counters, and self-times from a short
traced replay).  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; everything above it is
for people.  See ``README.md`` beside this file for what each number
means and ``BENCHMARK.json`` at the repository root for the contract.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(REPO / "src"))

from e2e_stats import (  # noqa: E402
    HOST_CALIB_REF_MS,
    host_calib,
    quantile,
    quantile_guard,
    self_times,
    speed_factor,
    spread,
)

DEFAULT_SEED = 20170801
#: The timed phase is cut, and the host calibrated, at the first op
#: boundary after this many seconds of work.
CUT_SECONDS = 0.25
#: Set-up is repeated and its median reported: it is short, so a single
#: reading would mostly measure the host.
SETUP_REPEATS = 3

#: name → (unit, better).  The bounds live in BENCHMARK.json.
END_TO_END = {
    "qps": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "cpu_ms_per_query": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
    "planned_cost_usd_per_query": ("usd", "lower"),
}

#: Span name → the per-layer metric carrying its self-time per query.
SELF_TIME_METRICS = {
    "sql.plan_query": "sql.plan_query_self_ms",
    "core.assign": "core.assign_self_ms",
    "core.verify_assignment": "core.verify_self_ms",
    "core.dispatch": "core.dispatch_self_ms",
    "crypto.query_keygen": "crypto.query_keygen_self_ms",
    "crypto.seal_envelope": "crypto.seal_self_ms",
    "crypto.open_envelope": "crypto.open_self_ms",
    "crypto.encrypt_column": "crypto.encrypt_column_self_ms",
    "crypto.decrypt_column": "crypto.decrypt_column_self_ms",
    "engine.execute": "engine.execute_self_ms",
    "distributed.run": "distributed.run_self_ms",
    "service.execute": "service.overhead_ms",
    "gateway.execute": "gateway.overhead_ms",
}

#: name → (unit, better).  ``(exact)`` counters repeat bit-for-bit with
#: one client and the same seed; ``--selfcheck`` enforces it.
PER_LAYER = {
    "sql.plan_query_ms": ("ms", "lower"),
    "core.candidates_ms": ("ms", "lower"),
    "core.assign_ms": ("ms", "lower"),
    "core.assign_wide_ms": ("ms", "lower"),
    "core.assign_cached_us": ("us", "lower"),
    "core.dispatch_ms": ("ms", "lower"),
    "core.policy_mutation_us": ("us", "lower"),
    "core.assignment_cache_hit_ratio": ("ratio", "higher"),
    "core.edge_table_hit_ratio": ("ratio", "higher"),
    "core.reconcile_kept_per_mutation": ("count", "higher"),
    "core.reconcile_evicted_per_mutation": ("count", "lower"),
    "cost.estimate_ms": ("ms", "lower"),
    "cost.planned_usd_ua": ("usd", "lower"),
    "cost.planned_usd_uapenc": ("usd", "lower"),
    "cost.planned_usd_uapmix": ("usd", "lower"),
    "crypto.det_us_per_value": ("us", "lower"),
    "crypto.rnd_us_per_value": ("us", "lower"),
    "crypto.ope_us_per_value": ("us", "lower"),
    "crypto.paillier_enc_us_per_value": ("us", "lower"),
    "crypto.paillier_dec_us_per_value": ("us", "lower"),
    "crypto.envelope_ms": ("ms", "lower"),
    "crypto.query_keygen_ms": ("ms", "lower"),
    "crypto.rsa_keygen_ms": ("ms", "lower"),
    "engine.plain_exec_ms": ("ms", "lower"),
    "engine.executor_cache_hit_ratio": ("ratio", "higher"),
    "distributed.run_cold_ms": ("ms", "lower"),
    "distributed.run_warm_ms": ("ms", "lower"),
    "distributed.refresh_tables_ms": ("ms", "lower"),
    "distributed.fragments_per_query": ("count", "lower"),
    "distributed.messages_per_query": ("count", "lower"),
    "distributed.envelope_bytes_per_query": ("bytes", "lower"),
    "distributed.rows_transferred_per_query": ("count", "lower"),
    "distributed.fragment_cache_hit_ratio": ("ratio", "higher"),
    "distributed.retries_per_query": ("count", "lower"),
    "distributed.failovers_per_query": ("count", "lower"),
    "parallel.pool_tasks": ("count", "lower"),
    "service.execute_warm_ms": ("ms", "lower"),
    "service.execute_cold_ms": ("ms", "lower"),
    "service.plan_cache_hit_ratio": ("ratio", "higher"),
    "service.keys_reused_ratio": ("ratio", "higher"),
    "gateway.queue_wait_ms": ("ms", "lower"),
    "gateway.admitted": ("count", "higher"),
    "gateway.refused": ("count", "lower"),
    "obs.scrape_ms": ("ms", "lower"),
    "tpch.generate_s": ("s", "lower"),
    "host.calib_ms": ("ms", "lower"),
    "host.speed_factor": ("ratio", "higher"),
    "host.raw_qps": ("1/s", "higher"),
    "host.raw_latency_p50_ms": ("ms", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.unattributed_share": ("ratio", "lower"),
    **{name: ("ms", "lower") for name in SELF_TIME_METRICS.values()},
}

EXACT = (
    "core.assignment_cache_hit_ratio", "core.edge_table_hit_ratio",
    "core.reconcile_kept_per_mutation",
    "core.reconcile_evicted_per_mutation",
    "cost.planned_usd_ua", "cost.planned_usd_uapenc",
    "cost.planned_usd_uapmix", "engine.executor_cache_hit_ratio",
    "distributed.fragments_per_query", "distributed.messages_per_query",
    "distributed.envelope_bytes_per_query",
    "distributed.rows_transferred_per_query",
    "distributed.fragment_cache_hit_ratio",
    "distributed.retries_per_query", "distributed.failovers_per_query",
    "parallel.pool_tasks", "service.plan_cache_hit_ratio",
    "service.keys_reused_ratio", "gateway.admitted", "gateway.refused",
)


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------


class Tally:
    """Ops attempted and failed, with the first few reasons kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._lock = threading.Lock()

    def record(self, ok: bool, reason: str = "") -> None:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.reasons) < 10:
                    self.reasons.append(reason)


class Sample(NamedTuple):
    """One timed op: its class, raw latency, segment, and kept reply."""

    op: object
    seconds: float
    segment: int
    reply: object


class Timeline:
    """A stretch of work cut into segments bracketed by calibrations.

    This host's speed changes by 10-40 % in phases a few seconds long,
    so one factor per run, or per 2 s slice, misses most of it.  The
    work is cut every :data:`CUT_SECONDS`, at an op boundary, and the
    calibration kernel runs in the gap; each segment's timings are
    scaled by the mean of the calibrations either side of it.
    """

    def __init__(self) -> None:
        self.segments: list[dict] = []
        self._calib = host_calib()
        self._open()

    def _open(self) -> None:
        self._wall = time.perf_counter()
        self._cpu = time.process_time()

    @property
    def index(self) -> int:
        """Index of the segment now open."""
        return len(self.segments)

    def due(self) -> bool:
        return time.perf_counter() - self._wall >= CUT_SECONDS

    def cut(self) -> None:
        wall = time.perf_counter() - self._wall
        cpu = time.process_time() - self._cpu
        after = host_calib()
        self.segments.append({
            "wall": wall, "cpu": cpu, "calib_before": self._calib,
            "calib_after": after,
            "factor": speed_factor(self._calib, after)})
        self._calib = after
        self._open()

    def raw_wall(self) -> float:
        return sum(segment["wall"] for segment in self.segments)

    def calib_ms(self) -> float:
        return statistics.mean(
            [self.segments[0]["calib_before"]]
            + [segment["calib_after"] for segment in self.segments])


def run_client(workload, seed: int, client: int, rounds: range,
               samples: list, tally: Tally, timeline: Timeline | None = None,
               cut_inline: bool = False, recorder=None,
               audit: bool = False) -> None:
    """Run whole rounds of one client's sequence, closed loop.

    An op that raises - refused, shed, or failed - is a failed op.  With
    ``audit`` the reply is checked on the spot (assignment re-verified
    under the policy in force, answer compared); otherwise the reply is
    kept and compared after the timed phase.  With ``cut_inline`` this
    client is the only one and cuts the timeline itself between ops.
    """
    for index in rounds:
        for op in workload.round_ops(seed, client, index):
            if cut_inline and timeline.due():
                timeline.cut()
            if recorder is not None and op.kind == "query":
                recorder.query += 1
            started = time.perf_counter()
            try:
                outcome = workload.run(client, op)
            except Exception as error:  # noqa: BLE001 - counted, reported
                if op.kind != "query":
                    raise
                tally.record(False, f"{op.key}: {type(error).__name__}: "
                                    f"{error}")
                continue
            seconds = time.perf_counter() - started
            if op.kind != "query":
                continue
            reply = workload.digest(op, outcome)
            if audit:
                try:
                    problems = workload.audit(op, outcome)
                except Exception as error:  # noqa: BLE001
                    problems = [f"{type(error).__name__}: {error}"]
                if not workload.answer_ok(op, reply):
                    problems.append("answer differs from the oracle")
                tally.record(not problems,
                             f"{op.key}: " + "; ".join(problems))
            else:
                segment = timeline.index if timeline is not None else 0
                samples.append(Sample(op, seconds, segment, reply))


def run_round(workload, seed: int, clients: int, index: int,
              samples: list, tally: Tally, timeline: Timeline,
              recorder=None) -> None:
    """One round of every client's sequence, on the timeline.

    A single client cuts the timeline itself at op boundaries.  Several
    clients run the round on a thread each and are parked at its end,
    where the timeline is cut (a round is about as long as a segment).
    """
    if clients == 1:
        run_client(workload, seed, 0, range(index, index + 1), samples,
                   tally, timeline, cut_inline=True, recorder=recorder)
        return
    per_client = [[] for _ in range(clients)]
    threads = [
        threading.Thread(target=run_client, args=(
            workload, seed, client, range(index, index + 1),
            per_client[client], tally, timeline))
        for client in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    timeline.cut()
    for kept in per_client:
        samples.extend(kept)


def check_samples(workload, samples: list, tally: Tally) -> None:
    for sample in samples:
        tally.record(workload.answer_ok(sample.op, sample.reply),
                     f"{sample.op.key}: answer differs from the oracle")


class Ticks:
    """Calibrations sprinkled through set-up, and the time they took."""

    def __init__(self) -> None:
        self.values: list[float] = []
        self.seconds = 0.0

    def __call__(self) -> None:
        started = time.perf_counter()
        self.values.append(host_calib())
        self.seconds += time.perf_counter() - started


def set_up(name: str, seed: int, tally: Tally, repeats: int):
    """Build the workload ``repeats`` times; keep the last.

    Set-up is everything before the timed phase: data generation,
    oracle answers, service construction (RSA keygen included) and one
    untimed warm round whose replies are checked.  Returns the workload
    and the median host-normalised set-up time.
    """
    from e2e_workloads import WORKLOADS

    workload = None
    times = []
    for _ in range(repeats):
        if workload is not None:
            workload.close()
            workload = None
        gc.collect()
        tick = Ticks()
        tick()
        started = time.perf_counter()
        workload = WORKLOADS[name]()
        workload.setup(tick)
        warm: list[Sample] = []
        for client in range(workload.clients):
            run_client(workload, seed, client, range(-1, 0), warm, tally)
            tick()
        check_samples(workload, warm, tally)
        gc.collect()
        raw = time.perf_counter() - started - tick.seconds
        tick()
        times.append(raw * HOST_CALIB_REF_MS / statistics.mean(tick.values))
    return workload, statistics.median(times)


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_end_to_end(name: str, seed: int, seconds: float) -> dict:
    tally = Tally()
    workload, setup_s = set_up(name, seed, tally, SETUP_REPEATS)
    try:
        samples: list[Sample] = []
        done = 0
        timeline = Timeline()
        started = time.perf_counter()
        while (done < workload.rss_rounds
               or time.perf_counter() - started < seconds):
            run_round(workload, seed, workload.clients, done, samples,
                      tally, timeline)
            done += 1
            if done == workload.rss_rounds:
                rss = peak_rss_mb()
        if workload.clients == 1:
            timeline.cut()
        check_samples(workload, samples, tally)
        for client in range(workload.clients):
            run_client(workload, seed, client, range(done, done + 1),
                       [], tally, audit=True)
    finally:
        workload.close()

    if not samples:
        raise SystemExit(f"{name}: no op completed; first failures: "
                         f"{tally.reasons}")
    ops = len(samples)
    segments = timeline.segments
    factors = [segment["factor"] for segment in segments]
    latencies = sorted(s.seconds * 1000.0 * factors[s.segment]
                       for s in samples)
    raw_latencies = sorted(s.seconds * 1000.0 for s in samples)
    wall = sum(segment["wall"] * segment["factor"] for segment in segments)
    cpu = sum(segment["cpu"] * segment["factor"] for segment in segments)
    metrics = {
        "qps": ops / wall,
        "latency_p50_ms": quantile(latencies, 50),
        "latency_p90_ms": quantile(latencies, 90),
        "cpu_ms_per_query": cpu * 1000.0 / ops,
        "peak_rss_mb": rss,
        "setup_s": setup_s,
        "planned_cost_usd_per_query":
            sum(s.reply.cost_usd for s in samples) / ops,
    }
    guards = {q: quantile_guard(latencies, q) for q in (50, 90)}
    classes = class_table(samples, factors)
    return {
        "metrics": metrics,
        "tally": tally,
        "detail": {
            "ops": ops, "rounds": done, "segments": segments,
            "raw": {"qps": ops / timeline.raw_wall(),
                    "latency_p50_ms": quantile(raw_latencies, 50),
                    "latency_p90_ms": quantile(raw_latencies, 90),
                    "calib_ms": timeline.calib_ms()},
            "samples_beyond_p90": ops - int(0.9 * (ops - 1)) - 1,
            "guards": {str(q): g._asdict() for q, g in guards.items()},
            "quantile_owner": {
                str(q): owner_of(classes, g.value)
                for q, g in guards.items()},
            "classes": classes,
        },
    }


def class_table(samples: list, factors: list[float]) -> list[dict]:
    """Per op class: count and median / min / max normalised latency."""
    by_class: dict[str, list[float]] = {}
    for s in samples:
        by_class.setdefault(s.op.key, []).append(
            s.seconds * 1000.0 * factors[s.segment])
    rows = [{"class": key, "n": len(values),
             "p50_ms": statistics.median(values),
             "min_ms": min(values), "max_ms": max(values)}
            for key, values in by_class.items()]
    return sorted(rows, key=lambda row: row["p50_ms"])


def owner_of(classes: list[dict], value: float) -> str:
    """The op class whose median latency is nearest to ``value``."""
    return min(classes, key=lambda row: abs(row["p50_ms"] - value))["class"]


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------


def measure_per_layer(name: str, seed: int, json_path: Path | None) -> dict:
    from e2e_layers import measure_layers
    from e2e_trace import Recorder, tracing
    from e2e_workloads import COUNTER_NAMES

    tally = Tally()
    workload, _ = set_up(name, seed, tally, 1)
    try:
        rounds = range(0, workload.trace_rounds)

        def replay(samples: list, recorder=None) -> Timeline:
            timeline = Timeline()
            for index in rounds:
                run_round(workload, seed, 1, index, samples, tally,
                          timeline, recorder)
            timeline.cut()
            return timeline

        # Untraced, traced, untraced: the replay drifts (warm-up, heap
        # growth), and the mean of the two untraced walls cancels it.
        plain: list[Sample] = []
        plain_timeline = replay(plain)
        before = workload.cache_counters()
        traced: list[Sample] = []
        recorder = Recorder()
        with tracing(recorder):
            traced_wall = replay(traced, recorder).raw_wall()
        after = workload.cache_counters()
        again: list[Sample] = []
        plain_wall = (plain_timeline.raw_wall()
                      + replay(again).raw_wall()) / 2.0
        calib = plain_timeline.calib_ms()
        mutations = sum(
            1 for index in rounds
            for op in workload.round_ops(seed, 0, index)
            if op.kind == "mutate")
        extra = workload.layer_counters()
        scenario_costs = workload.scenario_costs()
        check_samples(workload, plain + traced + again, tally)
    finally:
        workload.close()

    ops = len(traced)
    op_wall = sum(s.seconds for s in traced)
    # Query ids were handed out in op order, so span.query indexes traced.
    class_of = {index + 1: sample.op.key
                for index, sample in enumerate(traced)}
    self_by_name: dict[str, float] = {}
    self_by_class: dict[str, dict[str, float]] = {}
    times = self_times(recorder.spans)
    for span in recorder.spans:
        seconds = times[span.span_id]
        self_by_name[span.name] = self_by_name.get(span.name, 0.0) + seconds
        per_class = self_by_class.setdefault(
            class_of.get(span.query, "?"), {})
        per_class[span.name] = per_class.get(span.name, 0.0) + seconds
    delta = {key: after[key] - before[key] for key in after}
    sums = dict(zip(COUNTER_NAMES, (
        sum(column) for column in zip(*(s.reply.counters for s in traced)))))
    raw_latencies = sorted(s.seconds * 1000.0 for s in plain)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics = measure_layers()
    metrics.update({
        "core.assignment_cache_hit_ratio": ratio(
            delta.get("assignment_hits", 0),
            delta.get("assignment_hits", 0)
            + delta.get("assignment_misses", 0)),
        "core.edge_table_hit_ratio": ratio(
            delta.get("edge_hits", 0),
            delta.get("edge_hits", 0) + delta.get("edge_misses", 0)),
        "core.reconcile_kept_per_mutation": ratio(
            delta.get("assignment_reconcile_kept", 0), mutations),
        "core.reconcile_evicted_per_mutation": ratio(
            delta.get("assignment_reconcile_evicted", 0), mutations),
        "engine.executor_cache_hit_ratio": ratio(
            after.get("executor_hits", 0),
            after.get("executor_hits", 0) + after.get("executor_misses", 0)),
        "distributed.fragments_per_query": sums["fragments"] / ops,
        "distributed.messages_per_query": sums["messages"] / ops,
        "distributed.envelope_bytes_per_query":
            sums["envelope_bytes"] / ops,
        "distributed.rows_transferred_per_query":
            sums["rows_transferred"] / ops,
        "distributed.fragment_cache_hit_ratio": ratio(
            sums["fragment_cache_hits"], sums["fragments"]),
        "distributed.retries_per_query": sums["retries"] / ops,
        "distributed.failovers_per_query": sums["failovers"] / ops,
        "parallel.pool_tasks": float(sum(
            1 for span in recorder.spans
            if span.name == "parallel.map_chunks")),
        "service.plan_cache_hit_ratio": sums["plan_cached"] / ops,
        "service.keys_reused_ratio": sums["keys_reused"] / ops,
        "gateway.queue_wait_ms": 0.0,
        "gateway.admitted": 0.0,
        "gateway.refused": 0.0,
        "host.calib_ms": calib,
        "host.speed_factor": HOST_CALIB_REF_MS / calib,
        "host.raw_qps": len(plain) / plain_wall,
        "host.raw_latency_p50_ms": quantile(raw_latencies, 50),
        "trace.overhead_share": 1.0 - plain_wall / traced_wall,
        "trace.unattributed_share":
            1.0 - sum(self_by_name.values()) / op_wall,
    })
    metrics.update(extra)
    if scenario_costs:
        # plan_sweep carries the Fig. 10 totals itself; they must agree
        # with the micro-measurement of the same 66 assignments.
        for scenario_name, cost in scenario_costs.items():
            key = f"cost.planned_usd_{scenario_name.lower()}"
            if abs(cost - metrics[key]) > 1e-9 * metrics[key]:
                tally.record(False, f"{key}: workload {cost} != layer "
                                    f"{metrics[key]}")
    if not (metrics["cost.planned_usd_ua"]
            >= metrics["cost.planned_usd_uapenc"]
            >= metrics["cost.planned_usd_uapmix"]):
        tally.record(False, "UA >= UAPenc >= UAPmix does not hold")
    for span_name, metric in SELF_TIME_METRICS.items():
        metrics[metric] = self_by_name.get(span_name, 0.0) * 1000.0 / ops

    stage_table = sorted(
        ({"span": span_name, "self_ms_per_query": seconds * 1000.0 / ops,
          "share": seconds / op_wall}
         for span_name, seconds in self_by_name.items()),
        key=lambda row: -row["share"])
    if json_path is not None:
        trace_path = json_path.with_name(f"trace_{name}.json")
        trace_path.write_text(json.dumps(
            [span._asdict() for span in recorder.spans]))
    stages_by_class = {
        key: {span_name: seconds / sum(per_class.values())
              for span_name, seconds in per_class.items()}
        for key, per_class in self_by_class.items()}
    return {"metrics": metrics, "tally": tally,
            "detail": {"ops": ops, "op_wall_s": op_wall,
                       "stages": stage_table,
                       "stages_by_class": stages_by_class}}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def print_report(name: str, record: dict, catalogue: dict) -> None:
    detail = record["detail"]
    print(f"== {name}: {detail['ops']} ops")
    for metric, value in record["metrics"].items():
        print(f"  {metric:42s} {value:14.6g} {catalogue[metric][0]}")
    if "classes" in detail:
        raw = detail["raw"]
        print(f"  raw (un-normalised): qps {raw['qps']:.4g}, "
              f"p50 {raw['latency_p50_ms']:.4g} ms, "
              f"p90 {raw['latency_p90_ms']:.4g} ms, "
              f"calib {raw['calib_ms']:.4g} ms "
              f"(ref {HOST_CALIB_REF_MS:g} ms); "
              f"{detail['samples_beyond_p90']} samples beyond p90")
        print("  class                    n     p50_ms     min_ms     max_ms")
        for row in detail["classes"]:
            print(f"  {row['class']:22s} {row['n']:4d} {row['p50_ms']:10.3f} "
                  f"{row['min_ms']:10.3f} {row['max_ms']:10.3f}")
        for q, guard in detail["guards"].items():
            verdict = "ok" if guard["ok"] else "ON A STEP"
            print(f"  quantile guard p{q}: {guard['low']:.3f} / "
                  f"{guard['value']:.3f} / {guard['high']:.3f} ms, owned by "
                  f"{detail['quantile_owner'][q]}: {verdict}")
    if "stages" in detail:
        print("  span                      self_ms/query   share of op wall")
        for row in detail["stages"]:
            print(f"  {row['span']:24s} {row['self_ms_per_query']:14.4f} "
                  f"{row['share']:10.1%}")
    tally = record["tally"]
    for reason in tally.reasons:
        print(f"  FAILED {reason}")


def run_one(name: str, seed: int, seconds: float, trace: int,
            json_path: Path | None) -> int:
    if trace:
        record = measure_per_layer(name, seed, json_path)
        catalogue = PER_LAYER
    else:
        record = measure_end_to_end(name, seed, seconds)
        catalogue = END_TO_END
    missing = set(catalogue) - set(record["metrics"])
    if missing:
        raise SystemExit(f"metrics not measured: {sorted(missing)}")
    print_report(name, record, catalogue)
    tally = record["tally"]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {metric: {"value": record["metrics"][metric],
                             "unit": catalogue[metric][0]}
                    for metric in catalogue},
    }
    if json_path is not None:
        json_path.write_text(json.dumps(
            {**result, "workload": name, "seed": seed, "trace": trace,
             "detail": record["detail"]}, indent=1))
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def spawn(name: str, seed: int, seconds: float, trace: int,
          json_path: Path | None = None, echo: bool = True) -> dict:
    """Run one workload in a fresh interpreter; return its last line."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    if json_path is not None:
        command += ["--json", str(json_path)]
    done = subprocess.run(command, capture_output=True, text=True)
    if echo:
        sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
    if done.returncode != 0:
        raise SystemExit(f"{name} exited {done.returncode}:\n"
                         f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def run_all(names: list[str], seed: int, seconds: float, trace: int,
            json_path: Path | None) -> int:
    """Every workload, one fresh interpreter each.  With ``--json OUT``
    each run's record goes to ``OUT_<workload>_<part>.json`` and the
    last lines of all runs to ``OUT``."""
    parts = ("end_to_end", "per_layer") if trace else ("end_to_end",)
    results = {}
    for name in names:
        results[name] = {}
        for part in parts:
            path = None if json_path is None else json_path.with_name(
                f"{json_path.stem}_{name}_{part}.json")
            results[name][part] = spawn(
                name, seed, seconds, int(part == "per_layer"), path)
    if json_path is not None:
        json_path.write_text(json.dumps(results, indent=1))
    failed = sum(part["failed"] for result in results.values()
                 for part in result.values())
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# --selfcheck
# ---------------------------------------------------------------------------

#: End-to-end metrics whose un-normalised reading is kept beside them.
RAW_TWINS = ("qps", "latency_p50_ms", "latency_p90_ms")


def selfcheck(k: int, seed: int, seconds: float) -> int:
    """Two interleaved sets of ``k`` runs per workload; compare them.

    Run ``i`` of either set uses ``seed + i``, as the driver gives every
    run another seed.  Fails when a between-set median gap or a set's
    own spread exceeds the metric's bound, when an ``(exact)`` counter
    differs between two traced runs of the same seed, when any op
    failed, or when a quantile sits on a step in most runs.  Writes ``NOISE.md`` (the
    comparison) and ``BASELINE.json`` / ``BASELINE.md`` (the medians and
    the stage table) beside this file.
    """
    from e2e_workloads import WORKLOADS

    contract = json.loads((REPO / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    noise = [
        "# Noise of the end-to-end benchmark", "",
        f"`run.py --selfcheck {k} --seconds {seconds:g} --seed {seed}`: two "
        f"sets of {k} runs per workload, interleaved run by run, run i of "
        "either set on seed+i.  `spread` is (Q3-Q1)/median within one set "
        "(the larger of the two sets); `gap` is how much worse set B's "
        "median is than set A's; `raw spread` is the spread of the same "
        "metric before host normalisation.", ""]
    baseline = {"host_calib_ref_ms": HOST_CALIB_REF_MS,
                "run_seconds": seconds, "runs_per_workload": 2 * k,
                "seed": seed, "workloads": {}}
    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix=".selfcheck_", dir=HERE) as tmp:
        scratch = Path(tmp) / "run.json"
        for name in WORKLOADS:
            sets, raws = ([], []), ([], [])
            on_step = {"50": 0, "90": 0}
            for i in range(k):
                for which in (0, 1):
                    result = spawn(name, seed + i, seconds, 0, scratch,
                                   echo=False)
                    detail = json.loads(scratch.read_text())["detail"]
                    sets[which].append(
                        {m: v["value"] for m, v in result["metrics"].items()})
                    raws[which].append(detail["raw"])
                    if result["failed"]:
                        problems.append(
                            f"{name}: {result['failed']} ops failed")
                    for q, guard in detail["guards"].items():
                        on_step[q] += not guard["ok"]
                    print(f"{name} run {i}{'AB'[which]}: " + ", ".join(
                        f"{m}={v:.5g}" for m, v in sets[which][-1].items()),
                        flush=True)
            layers = []
            for _ in range(2):
                result = spawn(name, seed, seconds, 1, scratch, echo=False)
                layers.append(
                    {m: v["value"] for m, v in result["metrics"].items()})
                stages = json.loads(scratch.read_text())["detail"]
            problems += [
                f"{name}: exact counter {metric} differed: "
                f"{layers[0][metric]} vs {layers[1][metric]}"
                for metric in EXACT if layers[0][metric] != layers[1][metric]]
            noise += noise_table(name, sets, raws, bounds, problems)
            # One run's sample can trip the guard on a sloped band; a
            # quantile that sits on a step trips it in most runs.
            for q, count in on_step.items():
                noise += [f"Quantile guard p{q}: on a step in {count} of "
                          f"{2 * k} runs.", ""]
                if count > k:
                    problems.append(f"{name}: p{q} sits on a step in "
                                    f"{count} of {2 * k} runs")
            both = sets[0] + sets[1]
            baseline["workloads"][name] = {
                "end_to_end": {m: statistics.median(r[m] for r in both)
                               for m in END_TO_END},
                "raw": {m: statistics.median(r[m] for r in raws[0] + raws[1])
                        for m in raws[0][0]},
                "per_layer": layers[0],
                "stages": stages["stages"],
                "stages_by_class": stages["stages_by_class"],
            }
    noise += ["## Verdict", ""] + (
        [f"- {problem}" for problem in problems] or
        ["Every gap and spread is within its bound; every exact counter "
         "repeated; no op failed; no quantile sits on a step in most "
         "runs."])
    (HERE / "NOISE.md").write_text("\n".join(noise) + "\n")
    (HERE / "BASELINE.json").write_text(json.dumps(baseline, indent=1) + "\n")
    (HERE / "BASELINE.md").write_text(baseline_markdown(baseline))
    print("\n".join(noise))
    return 1 if problems else 0


def noise_table(name: str, sets, raws, bounds: dict,
                problems: list[str]) -> list[str]:
    """One workload's rows of NOISE.md; appends to ``problems``."""
    lines = [f"## {name}", "",
             "| metric | median A | median B | gap | spread | raw spread "
             "| bound |", "|---|---|---|---|---|---|---|"]
    for metric, (_, better) in END_TO_END.items():
        a, b = ([run[metric] for run in runs] for runs in sets)
        median_a, median_b = statistics.median(a), statistics.median(b)
        gap = (median_a - median_b if better == "higher"
               else median_b - median_a) / median_a
        widest = max(spread(a), spread(b))
        raw = ""
        if metric in RAW_TWINS:
            raw = "{:.2%}".format(max(
                spread([run[metric] for run in runs])
                for runs in raws))
        bound = bounds[metric]
        lines.append(f"| {metric} | {median_a:.6g} | {median_b:.6g} | "
                     f"{gap:+.2%} | {widest:.2%} | {raw} | {bound:.6g} |")
        if gap > bound:
            problems.append(f"{name}: {metric} gap {gap:.2%} over its "
                            f"bound {bound:.2%}")
        if metric != "setup_s" and widest > bound:
            problems.append(f"{name}: {metric} spread {widest:.2%} over "
                            f"its bound {bound:.2%}")
    return lines + [""]


def baseline_markdown(baseline: dict) -> str:
    """The one-screen view of ``BASELINE.json``."""
    workloads = baseline["workloads"]
    names = list(workloads)
    lines = [
        "# Baseline", "",
        f"Medians of {baseline['runs_per_workload']} runs per workload "
        f"(`--selfcheck`, {baseline['run_seconds']:g} s each, seeds from "
        f"{baseline['seed']}), host-normalised to a calibration of "
        f"{baseline['host_calib_ref_ms']:g} ms; `raw` rows are the same "
        "runs un-normalised.  Full numbers, every per-layer metric and "
        "the per-class stage shares are in `BASELINE.json`.", "",
        "| metric | " + " | ".join(names) + " |",
        "|---|" + "---|" * len(names)]
    for metric, (unit, _) in END_TO_END.items():
        lines.append(f"| `{metric}` ({unit}) | " + " | ".join(
            f"{workloads[n]['end_to_end'][metric]:.4g}" for n in names)
            + " |")
    for metric in ("qps", "latency_p50_ms", "latency_p90_ms", "calib_ms"):
        lines.append(f"| raw `{metric}` | " + " | ".join(
            f"{workloads[n]['raw'][metric]:.4g}" for n in names) + " |")
    spans = sorted({row["span"] for n in names
                    for row in workloads[n]["stages"]})
    lines += ["", "Where an op's time goes (self-time share of op wall, "
              "traced replay, one client):", "",
              "| span | " + " | ".join(names) + " |",
              "|---|" + "---|" * len(names)]
    for span in spans:
        shares = [next((row["share"] for row in workloads[n]["stages"]
                        if row["span"] == span), 0.0) for n in names]
        lines.append(f"| `{span}` | " + " | ".join(
            f"{share:.1%}" for share in shares) + " |")
    lines.append("| unattributed | " + " | ".join(
        f"{workloads[n]['per_layer']['trace.unattributed_share']:.1%}"
        for n in names) + " |")

    def q5(workload: str, classes: tuple[str, ...]) -> dict[str, float]:
        rows = [workloads[workload]["stages_by_class"][c] for c in classes]
        return {span: statistics.mean(row.get(span, 0.0) for row in rows)
                for span in spans}

    warm = q5("warm_gateway", ("Q5",))
    cold = q5("cold_exec", ("Q5/d0", "Q5/d1"))
    lines += [
        "", "ROADMAP item 1's question, for TPC-H Q5 under UAPenc:", "",
        f"- warm (all 8 fragments served from cache): envelope RSA is "
        f"{warm['crypto.seal_envelope'] + warm['crypto.open_envelope']:.0%} "
        f"of the query (seal {warm['crypto.seal_envelope']:.0%}, open "
        f"{warm['crypto.open_envelope']:.0%}); the runtime's own "
        f"bookkeeping {warm['distributed.run']:.0%}.",
        f"- cold (every fragment executes): operators "
        f"{cold['engine.execute']:.0%}, column encryption "
        f"{cold['crypto.encrypt_column']:.0%}, column decryption "
        f"{cold['crypto.decrypt_column']:.0%}, envelope RSA "
        f"{cold['crypto.seal_envelope'] + cold['crypto.open_envelope']:.0%}."
        "  From outside, decryption is visible per column, not per "
        "scheme; `crypto.paillier_dec_us_per_value` prices the Paillier "
        "part per value.", ""]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def listing() -> dict:
    from e2e_workloads import WORKLOADS

    return {
        "workloads": list(WORKLOADS),
        "end_to_end": list(END_TO_END),
        "per_layer": list(PER_LAYER),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see benchmarks/e2e/README.md).")
    parser.add_argument("--workload", default="all",
                        help="a workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="drives the op sequence (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: per-layer metrics from a traced replay")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the full record here (spans go to "
                             "trace_<workload>.json beside it)")
    parser.add_argument("--list", action="store_true",
                        help="print every workload and metric name")
    parser.add_argument("--selfcheck", type=int, nargs="?", const=5,
                        default=None, metavar="K",
                        help="two interleaved sets of K runs; writes NOISE.md")
    arguments = parser.parse_args(argv)

    if not (REPO / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure: {REPO / 'src' / 'repro'} "
                         "is missing")
    if arguments.list:
        print(json.dumps(listing(), indent=1))
        return 0
    seconds = arguments.seconds
    if seconds is None:
        seconds = json.loads(
            (REPO / "BENCHMARK.json").read_text())["run_seconds"]
    if seconds <= 0:
        parser.error("--seconds must be positive")
    names = listing()["workloads"]
    if arguments.selfcheck is not None:
        return selfcheck(arguments.selfcheck, arguments.seed, seconds)
    if arguments.workload == "all":
        return run_all(names, arguments.seed, seconds, arguments.trace,
                       arguments.json)
    if arguments.workload not in names:
        parser.error(f"unknown workload {arguments.workload!r}; "
                     f"choose from {names} or 'all'")
    return run_one(arguments.workload, arguments.seed, seconds,
                   arguments.trace, arguments.json)


if __name__ == "__main__":
    sys.exit(main())
