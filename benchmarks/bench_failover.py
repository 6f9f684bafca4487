#!/usr/bin/env python
"""Mid-run provider death: failover correctness and latency blow-up.

The ISSUE-7 acceptance bar: a :class:`~repro.service.QueryService`
streaming queries while a compute provider is killed mid-run must

* return **bit-identical** results to the fault-free run for every
  query, before and after the kill;
* record the recovery in each affected
  :class:`~repro.service.QueryOutcome` (failover events, breaker
  trips, added latency);
* never dispatch a fragment to an unauthorized replacement — every
  re-dispatch target is re-checked here with
  :func:`~repro.core.visibility.verify_assignment`, independently of
  the runtime's own gate;
* keep the post-kill latency blow-up bounded.

The victim is not hardcoded: the fault-free run is inspected and the
kill targets a compute subject the planner actually chose (data
authorities cannot fail over; the querying user is the last-resort
assignee).  Each query uses a distinct selection constant so every
round exercises the full plan → assign → dispatch → execute pipeline
instead of the warm fragment cache.

``--quick`` runs a smaller smoke configuration for CI; ``--json PATH``
emits the measurements for trend tracking.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_failover.py
    PYTHONPATH=src python benchmarks/bench_failover.py \
        --quick --json BENCH_failover.json

Structural invariants (identical rows, failover recorded, zero
unauthorized re-dispatches, the victim never chosen again) always gate
the exit status.  The latency blow-up bar gates only the full run:
under ``--quick`` it is report-only, so contended CI runners cannot
flake unrelated merges on timing noise.
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

from repro.core.visibility import verify_assignment
from repro.distributed import FaultInjector
from repro.engine.table import Table
from repro.exceptions import UnauthorizedError
from repro.paper_example import build_running_example
from repro.service import QueryService

#: Post-kill queries may cost at most this multiple of the fault-free
#: per-query mean (full mode only; --quick reports instead of gating).
BLOWUP_BAR = 5.0

SQL_TEMPLATE = ("select T, avg(P) from Hosp join Ins on S=C "
                "where D='stroke' group by T having avg(P)>{threshold}")


def query_stream(queries: int):
    """Distinct SQL per round, so no round rides the fragment cache."""
    return [SQL_TEMPLATE.format(threshold=100 + i)
            for i in range(queries)]


def build_service(rows: int, latency: float,
                  injector: FaultInjector | None = None) -> QueryService:
    example = build_running_example()
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
        user="U", latency_seconds=latencies, fault_injector=injector,
    )


def pick_victim(outcome, owners, user: str) -> str:
    """A compute subject the fault-free planner actually chose."""
    immortal = set(owners.values()) | {user}
    assigned = sorted(
        subject
        for subject in set(outcome.assignment.extended.assignment.values())
        if subject not in immortal)
    if not assigned:
        raise SystemExit("planner assigned only authorities/user; "
                         "no killable compute subject")
    return assigned[0]


def run_stream(service: QueryService, stream, kill_after: int | None,
               injector: FaultInjector | None, victim: str | None):
    """Run the stream, killing ``victim`` after ``kill_after`` queries."""
    outcomes = []
    timings = []
    for index, sql in enumerate(stream):
        if kill_after is not None and index == kill_after:
            injector.kill(victim)
        started = time.perf_counter()
        outcomes.append(service.execute(sql))
        timings.append(time.perf_counter() - started)
    return outcomes, timings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller smoke configuration (CI)")
    parser.add_argument("--json", type=Path, default=None,
                        help="emit measurements to this JSON file")
    arguments = parser.parse_args(argv)

    if arguments.quick:
        queries, kill_after, rows, latency = 8, 3, 40, 0.002
    else:
        queries, kill_after, rows, latency = 24, 8, 80, 0.005

    stream = query_stream(queries)

    clean_service = build_service(rows, latency)
    clean_outcomes, clean_timings = run_stream(
        clean_service, stream, None, None, None)
    victim = pick_victim(clean_outcomes[0], clean_service.owners,
                         clean_service.user)

    injector = FaultInjector(seed=20170601)
    faulted_service = build_service(rows, latency, injector)
    faulted_outcomes, faulted_timings = run_stream(
        faulted_service, stream, kill_after, injector, victim)

    # ------------------------------------------------------------------
    # Audit every recovery the faulted run performed.
    # ------------------------------------------------------------------
    mismatched_rows = []
    unauthorized = []
    victim_reused = []
    failovers_total = 0
    breaker_trips = 0
    retries = 0
    affected_queries = 0
    for index, (clean, faulted) in enumerate(
            zip(clean_outcomes, faulted_outcomes)):
        if sorted(clean.result.rows) != sorted(faulted.result.rows):
            mismatched_rows.append(index)
        failovers_total += len(faulted.failovers)
        breaker_trips += faulted.breaker_trips
        retries += faulted.retries
        affected_queries += int(faulted.failed_over)
        for event in faulted.failovers:
            if event.replacement == victim:
                victim_reused.append(index)
            try:
                verify_assignment(faulted.assignment.extended.plan,
                                  faulted_service.policy,
                                  event.repaired_assignment)
            except UnauthorizedError:
                unauthorized.append(
                    (index, event.fragment_id, event.replacement))

    post_kill = slice(kill_after, queries)
    clean_mean = sum(clean_timings[post_kill]) / (queries - kill_after)
    faulted_mean = sum(faulted_timings[post_kill]) / (queries - kill_after)
    blowup = faulted_mean / clean_mean if clean_mean else float("inf")

    health = faulted_service.health_info()
    print(f"failover workload: {queries} queries, provider {victim!r} "
          f"killed before query {kill_after}")
    print(f"  fault-free: {sum(clean_timings) * 1000:8.1f} ms total, "
          f"{clean_mean * 1000:.1f} ms/query post-kill window")
    print(f"  faulted:    {sum(faulted_timings) * 1000:8.1f} ms total, "
          f"{faulted_mean * 1000:.1f} ms/query post-kill window")
    print(f"  blow-up: {blowup:.2f}x (bar {BLOWUP_BAR}x); "
          f"{failovers_total} failovers across {affected_queries} "
          f"queries, {breaker_trips} breaker trips, {retries} retries")
    print(f"  victim health: state={health[victim]['state']}, "
          f"dead={health[victim]['dead']}")

    if arguments.json is not None:
        arguments.json.write_text(json.dumps({
            "quick": arguments.quick,
            "queries": queries,
            "kill_after": kill_after,
            "victim": victim,
            "failovers_total": failovers_total,
            "affected_queries": affected_queries,
            "breaker_trips": breaker_trips,
            "retries": retries,
            "unauthorized_failovers": len(unauthorized),
            "clean_mean_seconds": clean_mean,
            "faulted_mean_seconds": faulted_mean,
            "blowup": blowup,
            "victim_health": health[victim],
        }, indent=2, sort_keys=True))
        print(f"measurements written to {arguments.json}")

    failures = []
    if mismatched_rows:
        failures.append(
            f"faulted run returned different rows for queries "
            f"{mismatched_rows}")
    if not failovers_total and not affected_queries:
        failures.append("provider death triggered no recorded failover")
    if unauthorized:
        failures.append(
            f"unauthorized re-dispatch targets: {unauthorized}")
    if victim_reused:
        failures.append(
            f"dead victim chosen as replacement in queries {victim_reused}")
    if not health[victim]["dead"]:
        failures.append("health registry never marked the victim dead")
    if any(outcome.failed_over
           for outcome in faulted_outcomes[:kill_after]):
        failures.append("failover recorded before the kill")
    if blowup > BLOWUP_BAR:
        miss = (f"post-kill latency blow-up {blowup:.2f}x "
                f"> bar {BLOWUP_BAR}x")
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
