#!/usr/bin/env python
"""Concurrent fragment scheduling and warm service sessions.

Two measurements, matching the ISSUE-3 acceptance bars:

* **fan-out** — a balanced join tree over many single-authority
  relations, with every join delegated to a rotating pool of providers
  holding encrypted-everything authorizations.  Each non-user subject
  simulates a provider round-trip (``latency_seconds``), so the
  sequential reference schedule pays one delay per fragment while the
  concurrent scheduler overlaps independent fragments; the bar is a
  ≥3× wall-clock speedup with *identical* result rows.
* **service** — a warm :class:`~repro.service.QueryService` session
  repeating the paper's running-example query: every repeat must hit the
  policy-versioned assignment cache (and reuse keys/plans/fragments),
  making warm queries measurably cheaper than the cold first run.

``--quick`` runs a smaller smoke configuration for CI; ``--json PATH``
emits the measurements for trend tracking.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_distributed_workload.py
    PYTHONPATH=src python benchmarks/bench_distributed_workload.py \
        --quick --json BENCH_workload.json

Structural invariants (identical sequential/parallel results, warm
assignment-cache hits) always gate the exit status.  Wall-clock bars
gate only the full run: under ``--quick`` they are report-only (printed
as warnings), so contended CI runners cannot flake unrelated merges on
timing noise.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # allow running without PYTHONPATH set
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.authorization import (
    Authorization,
    Policy,
    Subject,
    SubjectKind,
)
from repro.core.dispatch import dispatch
from repro.core.extension import minimally_extend
from repro.core.keys import establish_keys
from repro.core.operators import BaseRelationNode, Join, PlanNode
from repro.core.plan import QueryPlan
from repro.core.predicates import equals
from repro.core.schema import Relation, Schema
from repro.crypto.keymanager import DistributedKeys
from repro.distributed import build_runtime, generate_subject_keys
from repro.engine.table import Table
from repro.paper_example import build_running_example
from repro.service import QueryService

SPEEDUP_BAR = 3.0
SERVICE_BAR = 1.5

QUICK_SPEEDUP_BAR = 2.0
QUICK_SERVICE_BAR = 1.1

RUNNING_SQL = ("select T, avg(P) from Hosp join Ins on S=C "
               "where D='stroke' group by T having avg(P)>100")


def build_fanout_workload(leaves: int, providers: int, rows: int):
    """A balanced join tree over ``leaves`` single-authority relations.

    Every relation lives at its own authority; providers hold
    encrypted-everything authorizations, and each join level rotates
    across the provider pool so sibling joins land on different subjects
    (independent fragments the scheduler can overlap).
    """
    schema = Schema()
    policy = Policy(schema)
    subjects = [Subject("U", SubjectKind.USER)]
    owners: dict[str, str] = {}
    tables: dict[str, dict[str, Table]] = {}
    provider_names = [f"P{i}" for i in range(providers)]
    level: list[tuple[PlanNode, str]] = []  # (subtree, join-key attr)
    for index in range(leaves):
        relation = schema.add(Relation(
            f"R{index}", [f"a{index}", f"v{index}"], cardinality=rows,
        ))
        authority = f"A{index}"
        subjects.append(Subject(authority, SubjectKind.AUTHORITY))
        owners[relation.name] = authority
        tables[authority] = {relation.name: Table(
            relation.name, relation.attribute_names,
            [(row, row * index) for row in range(rows)],
        )}
        policy.grant(Authorization(
            relation, relation.attribute_names, (), "U"))
        policy.grant(Authorization(
            relation, relation.attribute_names, (), authority))
        for provider in provider_names:
            policy.grant(Authorization(
                relation, (), relation.attribute_names, provider))
        level.append((BaseRelationNode(relation), f"a{index}"))
    subjects += [Subject(p, SubjectKind.PROVIDER) for p in provider_names]

    assignment: dict[PlanNode, str] = {}
    depth = 0
    while len(level) > 1:
        depth += 1
        next_level: list[tuple[PlanNode, str]] = []
        for pair_index in range(0, len(level) - 1, 2):
            (left, left_key), (right, right_key) = \
                level[pair_index], level[pair_index + 1]
            join = Join(left, right, equals(left_key, right_key))
            assignment[join] = provider_names[
                (depth + pair_index // 2) % providers]
            next_level.append((join, left_key))
        if len(level) % 2:
            next_level.append(level[-1])
        level = next_level
    plan = QueryPlan(level[0][0])
    return plan, policy, subjects, assignment, owners, tables


def run_fanout(leaves: int, providers: int, rows: int,
               latency: float, repeat: int) -> dict:
    """Best-of-``repeat`` wall time per schedule on cold runtimes."""
    plan, policy, subjects, assignment, owners, tables = \
        build_fanout_workload(leaves, providers, rows)
    extended = minimally_extend(plan, policy, assignment, owners=owners,
                                deliver_to="U")
    keys = establish_keys(extended, policy)
    dispatch_plan = dispatch(extended, keys, owners=owners, user="U")
    distributed = DistributedKeys.from_assignment(keys)
    latencies = {s.name: (0.0 if s.name == "U" else latency)
                 for s in subjects}
    rsa_keys = generate_subject_keys(subjects)

    results = {}
    times = {}
    for schedule in ("sequential", "parallel"):
        best = float("inf")
        for _ in range(repeat):
            runtime = build_runtime(  # cold runtime per measurement
                policy, subjects, tables, user="U", schedule=schedule,
                rsa_keys=rsa_keys, latency_seconds=latencies,
            )
            start = time.perf_counter()
            table, trace = runtime.run(dispatch_plan, extended, keys,
                                       distributed)
            best = min(best, time.perf_counter() - start)
            runtime.close()
        results[schedule] = table
        times[schedule] = best

    identical = (results["parallel"].columns
                 == results["sequential"].columns
                 and results["parallel"].rows
                 == results["sequential"].rows)
    return {
        "leaves": leaves,
        "providers": providers,
        "rows": rows,
        "latency_seconds": latency,
        "fragments": len(dispatch_plan.fragments),
        "levels": len(dispatch_plan.execution_levels()),
        "sequential_seconds": times["sequential"],
        "parallel_seconds": times["parallel"],
        "speedup": times["sequential"] / times["parallel"],
        "results_identical": identical,
        "result_rows": len(results["parallel"]),
    }


def run_service(repeats: int) -> dict:
    """Cold-vs-warm timing of a persistent service session."""
    example = build_running_example()
    hosp = Table("Hosp", ("S", "B", "D", "T"), [
        (f"s{i}", 1950 + i, "stroke" if i % 3 else "flu",
         "tpa" if i % 2 else "surgery")
        for i in range(60)
    ])
    ins = Table("Ins", ("C", "P"), [
        (f"s{i}", 40.0 + 7.0 * (i % 30)) for i in range(60)
    ])
    service = QueryService(
        example.schema, example.policy, example.subjects,
        example.owners, {"H": {"Hosp": hosp}, "I": {"Ins": ins}},
        user="U",
    )
    session = service.session()
    cold = session.run(RUNNING_SQL)
    warm_times = []
    for _ in range(repeats):
        warm_times.append(session.run(RUNNING_SQL).wall_seconds)
    warm_mean = sum(warm_times) / len(warm_times)
    service.close()
    return {
        "repeats": repeats,
        "cold_seconds": cold.wall_seconds,
        "warm_mean_seconds": warm_mean,
        "warm_speedup": cold.wall_seconds / warm_mean,
        "assignment_cache_hits": session.stats.assignment_cache_hits,
        "plan_cache_hits": session.stats.plan_cache_hits,
        "fragment_cache_hits": session.stats.fragment_cache_hits,
        "result_rows": len(cold.result),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller smoke configuration (CI)")
    parser.add_argument("--json", type=Path, default=None,
                        help="emit measurements to this JSON file")
    arguments = parser.parse_args(argv)

    if arguments.quick:
        fanout = run_fanout(leaves=8, providers=4, rows=20,
                            latency=0.015, repeat=2)
        service = run_service(repeats=3)
        speedup_bar, service_bar = QUICK_SPEEDUP_BAR, QUICK_SERVICE_BAR
    else:
        fanout = run_fanout(leaves=16, providers=4, rows=40,
                            latency=0.025, repeat=3)
        service = run_service(repeats=5)
        speedup_bar, service_bar = SPEEDUP_BAR, SERVICE_BAR

    print(f"fan-out workload: {fanout['leaves']} relations, "
          f"{fanout['fragments']} fragments in {fanout['levels']} levels, "
          f"{fanout['latency_seconds'] * 1000:.0f} ms simulated latency")
    print(f"  sequential: {fanout['sequential_seconds'] * 1000:8.1f} ms")
    print(f"  parallel:   {fanout['parallel_seconds'] * 1000:8.1f} ms"
          f"   ({fanout['speedup']:.2f}x, bar {speedup_bar}x)")
    print(f"  identical results: {fanout['results_identical']} "
          f"({fanout['result_rows']} rows)")
    print(f"warm service session ({service['repeats']} repeats):")
    print(f"  cold: {service['cold_seconds'] * 1000:8.1f} ms")
    print(f"  warm: {service['warm_mean_seconds'] * 1000:8.1f} ms mean "
          f"({service['warm_speedup']:.2f}x, bar {service_bar}x)")
    print(f"  assignment cache hits: {service['assignment_cache_hits']}"
          f"/{service['repeats']}, fragment hits: "
          f"{service['fragment_cache_hits']}")

    if arguments.json is not None:
        arguments.json.write_text(json.dumps({
            "quick": arguments.quick,
            "fanout": fanout,
            "service": service,
        }, indent=2, sort_keys=True))
        print(f"measurements written to {arguments.json}")

    failures = []
    if not fanout["results_identical"]:
        failures.append("parallel and sequential results differ")
    if service["assignment_cache_hits"] != service["repeats"]:
        failures.append(
            f"expected {service['repeats']} assignment cache hits, "
            f"got {service['assignment_cache_hits']}")
    timing_misses = []
    if fanout["speedup"] < speedup_bar:
        timing_misses.append(
            f"fan-out speedup {fanout['speedup']:.2f}x "
            f"< bar {speedup_bar}x")
    if service["warm_speedup"] < service_bar:
        timing_misses.append(
            f"warm service speedup {service['warm_speedup']:.2f}x "
            f"< bar {service_bar}x")
    if arguments.quick:
        # Timing is report-only in smoke mode: shared CI runners are too
        # contended to gate merges on wall-clock bars.
        for miss in timing_misses:
            print(f"WARN (report-only under --quick): {miss}",
                  file=sys.stderr)
    else:
        failures.extend(timing_misses)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
