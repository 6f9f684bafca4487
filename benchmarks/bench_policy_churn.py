#!/usr/bin/env python
"""Warm-cache throughput under policy churn: journal vs flush-everything.

The ISSUE-6 acceptance bar: a :class:`~repro.service.QueryService`
serving a repeated query while the policy churns — every query preceded
by grant/revoke mutations that do **not** involve the workload's
candidate subjects — must sustain ≥10× the throughput of the
flush-everything baseline (the same service with the delta journal
disabled via ``journal_limit=0``, which degrades every reconcile to the
PR 2 flush).

With the journal on, each mutation's :class:`PolicyDelta` is disjoint
from every cached entry's dependency footprint, so the assignment cache,
edge tables, and fragment results all reconcile to *kept* and the
query runs on the warm path.  With the journal off,
``deltas_since`` returns ``None``, every cache flushes, and each query
pays the full assign + keygen + dispatch + execute pipeline again.

``--quick`` runs a smaller smoke configuration for CI; ``--json PATH``
emits the measurements for trend tracking.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_policy_churn.py
    PYTHONPATH=src python benchmarks/bench_policy_churn.py \
        --quick --json BENCH_churn.json

Structural invariants (identical results across both runs, every warm
query a cache hit with the journal, zero hits without it, no
evictions/flushes on the journal path) always gate the exit status.
The wall-clock throughput bar gates only the full run: under ``--quick``
it is report-only (printed as a warning), so contended CI runners cannot
flake unrelated merges on timing noise.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # allow running without PYTHONPATH set
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.authorization import Authorization
from repro.engine.table import Table
from repro.paper_example import build_running_example
from repro.service import QueryService

SPEEDUP_BAR = 10.0

RUNNING_SQL = ("select T, avg(P) from Hosp join Ins on S=C "
               "where D='stroke' group by T having avg(P)>100")

#: Subjects that churn but hold no role in the workload: they are not in
#: the service's candidate pool, so their deltas are disjoint from every
#: cached entry's dependency footprint.
OUTSIDE_SUBJECTS = ("W0", "W1", "W2", "W3")

#: The rule each outside subject toggles, per relation.
OUTSIDE_RULES = {
    "Hosp": (("T",), ("D",)),
    "Ins": ((), ("P",)),
}


def build_service(journal: bool, rows: int,
                  latency: float) -> QueryService:
    """The running-example service over synthetic rows.

    Every non-user subject simulates a provider round-trip of
    ``latency`` seconds — the cost a warm fragment cache avoids and a
    flushed one pays again on every query.
    """
    example = build_running_example()
    if not journal:
        example.policy.journal_limit = 0
    hosp = Table("Hosp", ("S", "B", "D", "T"), [
        (f"s{i}", 1950 + i % 50, "stroke" if i % 3 else "flu",
         "tpa" if i % 2 else "surgery")
        for i in range(rows)
    ])
    ins = Table("Ins", ("C", "P"), [
        (f"s{i}", 40.0 + 7.0 * (i % 30)) for i in range(rows)
    ])
    latencies = {name: (0.0 if name == "U" else latency)
                 for name in example.subject_names}
    return QueryService(
        example.schema, example.policy, example.subjects,
        example.owners, {"H": {"Hosp": hosp}, "I": {"Ins": ins}},
        user="U", latency_seconds=latencies,
    )


def run_churn_stream(journal: bool, queries: int,
                     mutations_per_query: int, rows: int,
                     latency: float) -> dict:
    """One service, one seeded churn stream, ``queries`` warm queries.

    The stream is deterministic given the seed and identical for both
    the journal and the baseline run, so their results must agree.
    """
    service = build_service(journal, rows, latency)
    policy = service.policy
    schema = service.schema
    session = service.session()
    cold = session.run(RUNNING_SQL)  # warm-up, untimed

    rng = random.Random(20170601)
    started = time.perf_counter()
    for _ in range(queries):
        for _ in range(mutations_per_query):
            relation = rng.choice(tuple(OUTSIDE_RULES))
            subject = rng.choice(OUTSIDE_SUBJECTS)
            if policy.revoke(relation, subject) is None:
                plaintext, encrypted = OUTSIDE_RULES[relation]
                policy.grant(Authorization(
                    schema.relation(relation), plaintext, encrypted,
                    subject))
        session.run(RUNNING_SQL)
    elapsed = time.perf_counter() - started

    info = service.cache_info()
    assignment = info["assignment"]
    return {
        "journal": journal,
        "queries": queries,
        "mutations_per_query": mutations_per_query,
        "latency_seconds": latency,
        "policy_version": policy.version,
        "elapsed_seconds": elapsed,
        "throughput_qps": queries / elapsed,
        "result_rows": sorted(cold.result.rows),
        "assignment_cache_hits": session.stats.assignment_cache_hits,
        "fragment_cache_hits": session.stats.fragment_cache_hits,
        "fragments_run": session.stats.fragments_run,
        "reconcile_kept": assignment["reconcile_kept"],
        "reconcile_evicted": assignment["reconcile_evicted"],
        "reconcile_flushed": assignment["reconcile_flushed"],
        "fragment_kept": info["fragment_kept"],
        "fragment_evicted": info["fragment_evicted"],
        "fragment_flushed": info["fragment_flushed"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller smoke configuration (CI)")
    parser.add_argument("--json", type=Path, default=None,
                        help="emit measurements to this JSON file")
    arguments = parser.parse_args(argv)

    if arguments.quick:
        queries, mutations, rows, latency = 12, 2, 40, 0.015
    else:
        queries, mutations, rows, latency = 40, 3, 80, 0.025

    journal = run_churn_stream(True, queries, mutations, rows, latency)
    baseline = run_churn_stream(False, queries, mutations, rows, latency)
    speedup = journal["throughput_qps"] / baseline["throughput_qps"]

    print(f"policy churn workload: {queries} queries, "
          f"{mutations} mutations before each "
          f"(policy version {journal['policy_version']} at the end)")
    print(f"  journal on:  {journal['throughput_qps']:8.1f} q/s "
          f"({journal['elapsed_seconds'] * 1000:.1f} ms; "
          f"{journal['assignment_cache_hits']}/{queries} assignment hits, "
          f"{journal['fragment_cache_hits']}/{journal['fragments_run']} "
          f"fragment hits)")
    print(f"  journal off: {baseline['throughput_qps']:8.1f} q/s "
          f"({baseline['elapsed_seconds'] * 1000:.1f} ms; "
          f"{baseline['assignment_cache_hits']} assignment hits, "
          f"{baseline['reconcile_flushed']} entries flushed)")
    print(f"  speedup: {speedup:.1f}x (bar {SPEEDUP_BAR}x)")
    print(f"  journal reconcile: {journal['reconcile_kept']} kept, "
          f"{journal['reconcile_evicted']} evicted, "
          f"{journal['fragment_kept']} fragment entries kept")

    if arguments.json is not None:
        arguments.json.write_text(json.dumps({
            "quick": arguments.quick,
            "journal": journal,
            "baseline": baseline,
            "speedup": speedup,
        }, indent=2, sort_keys=True))
        print(f"measurements written to {arguments.json}")

    failures = []
    if journal["result_rows"] != baseline["result_rows"]:
        failures.append("journal and baseline runs returned different rows")
    if journal["assignment_cache_hits"] != queries:
        failures.append(
            f"journal run: expected {queries} assignment cache hits, "
            f"got {journal['assignment_cache_hits']}")
    if baseline["assignment_cache_hits"] != 0:
        failures.append(
            f"baseline run: expected 0 assignment cache hits, "
            f"got {baseline['assignment_cache_hits']}")
    if journal["reconcile_evicted"] or journal["reconcile_flushed"]:
        failures.append(
            "journal run evicted/flushed entries for disjoint deltas "
            f"({journal['reconcile_evicted']} evicted, "
            f"{journal['reconcile_flushed']} flushed)")
    if journal["fragment_evicted"] or journal["fragment_flushed"]:
        failures.append(
            "journal run lost fragment entries to disjoint deltas")
    if not journal["fragment_kept"]:
        failures.append("journal run shows no kept runtime entries")
    if speedup < SPEEDUP_BAR:
        miss = (f"churn speedup {speedup:.1f}x < bar {SPEEDUP_BAR}x")
        if arguments.quick:
            # Timing is report-only in smoke mode: shared CI runners are
            # too contended to gate merges on wall-clock bars.
            print(f"WARN (report-only under --quick): {miss}",
                  file=sys.stderr)
        else:
            failures.append(miss)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
