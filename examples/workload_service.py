#!/usr/bin/env python3
"""Workload service walkthrough: many users, repeated queries, shared caches.

The hand-wired pipeline of ``quickstart.py`` — parse, authorize, extend,
dispatch, execute — is exactly what a persistent deployment should *not*
repeat per request.  :class:`repro.service.QueryService` owns the
long-lived state once:

* per-subject RSA keypairs (generated at service construction, reused by
  every envelope);
* the plan cache (identical SQL text → the identical plan object);
* the policy-versioned assignment cache (PR 2) plus memoised dispatch
  plans and distributed key material per cached assignment;
* whole-fragment result reuse inside the concurrent runtime.

This walkthrough runs a small multi-user session over the paper's
running example and prints what each layer saved.

Run:  python examples/workload_service.py
"""

from repro.engine import Table
from repro.exceptions import UnauthorizedError
from repro.paper_example import build_running_example
from repro.service import QueryService

QUERY = ("select T, avg(P) from Hosp join Ins on S=C "
         "where D='stroke' group by T having avg(P)>100")
PREMIUMS = "select C, P from Ins where P>80"


def main() -> None:
    example = build_running_example()
    hosp = Table("Hosp", ("S", "B", "D", "T"), [
        ("s1", 1980, "stroke", "tpa"),
        ("s2", 1975, "stroke", "tpa"),
        ("s3", 1990, "flu", "rest"),
        ("s4", 1960, "stroke", "surgery"),
        ("s5", 1955, "stroke", "surgery"),
    ])
    ins = Table("Ins", ("C", "P"), [
        ("s1", 150.0), ("s2", 90.0), ("s3", 200.0),
        ("s4", 60.0), ("s5", 50.0),
    ])

    # One service holds the policy, the subjects' nodes (tables live at
    # the authorities H and I), and every cross-query cache.
    service = QueryService(
        example.schema, example.policy, example.subjects,
        example.owners, {"H": {"Hosp": hosp}, "I": {"Ins": ins}},
        user="U",
    )

    print("=== User U: cold query, then warm repeats ===")
    session = service.session("U")
    cold = session.run(QUERY)
    print("cold:", cold.describe())
    for _ in range(3):
        warm = session.run(QUERY)
    print("warm:", warm.describe())
    assert warm.result.sorted_rows() == [("tpa", 120.0)]
    assert warm.plan_cached and warm.assignment_cached \
        and warm.keys_reused
    assert warm.trace.fragment_cache_hits == \
        len(warm.trace.fragments_run)
    print(session.describe())

    print("\n=== A second query through the same session ===")
    premiums = session.run(PREMIUMS)
    print("new :", premiums.describe())
    assert len(premiums.result) == 3  # s1, s2, s3 above 80

    print("\n=== User Y shares the service, X is refused ===")
    y_session = service.session("Y")
    y_outcome = y_session.run(QUERY)
    print("Y   :", y_outcome.describe())
    assert y_outcome.result.sorted_rows() == [("tpa", 120.0)]
    try:
        service.execute(QUERY, user="X")
        raise AssertionError("X must not receive the plaintext result")
    except UnauthorizedError as error:
        print("X   : DENIED —", error)

    print("\n=== Data refresh drops the stale caches ===")
    service.refresh_tables({"I": {"Ins": Table("Ins", ("C", "P"), [
        ("s1", 150.0), ("s2", 90.0), ("s3", 200.0),
        ("s4", 160.0), ("s5", 150.0),
    ])}})
    refreshed = session.run(QUERY)
    print("new :", refreshed.describe())
    assert refreshed.result.sorted_rows() == [
        ("surgery", 155.0), ("tpa", 120.0),
    ]
    assert refreshed.trace.fragment_cache_hits == 0  # caches dropped

    print("\n=== Service totals ===")
    print(service.describe())
    print("\nWorkload service walkthrough passed ✔")


if __name__ == "__main__":
    main()
