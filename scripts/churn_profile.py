#!/usr/bin/env python
"""Per (template, phase) of a ``policy_churn`` cycle: process ms in
``assign``, in key material + dispatch and in the run, fragments served
from cache, and how many re-plans adopted the plan a delta evicted.

Builds the UAPenc TPC-H service at scale 0.002 on dataset 107 and runs
the six churn templates (Q3, Q5, Q10, Q12, Q18, Q19) once warm.  Then
each cycle is the one ``policy_churn`` replays: revoke P1's rule on
``lineitem`` and run the six (phase ``revoked``), grant it back and run
them again (``restored``), then grant each of four subjects outside the
candidate pool a rule and drop it, running the six after each of those
eight mutations (``outside``).  A re-plan is a query whose assignment
missed; ``adopted`` counts those that landed on the evicted plan and so
kept its dispatch plan (``reconcile_adopted``,
:mod:`repro.core.plancache`).  Columns are per cycle, summed over the
queries of the phase; ms are ``time.process_time``.
Usage: ``PYTHONPATH=src python scripts/churn_profile.py [CYCLES]``
"""
import sys
import time
from collections import defaultdict

import repro.service.workload as workload_module
from repro.core.authorization import Authorization
from repro.service import QueryService
from repro.tpch import (
    AUTHORITY_TABLES, TPCH_UDFS, all_queries, build_tpch_schema, generate,
    scenario)

TEMPLATES = (3, 5, 10, 12, 18, 19)
PROVIDER = "P1"
OUTSIDERS = (("W0", "orders"), ("W1", "customer"), ("W2", "part"),
             ("W3", "supplier"))
PHASES = ("revoked", "restored", "outside")


def main(cycles: int = 3) -> None:
    schema = build_tpch_schema(0.002)
    data = generate(0.002, seed=107)
    tables = {authority: {name: data.table(name) for name in names}
              for authority, names in AUTHORITY_TABLES.items()}
    setting = scenario("UAPenc", schema)
    service = QueryService(schema, setting.policy, setting.subjects,
                           setting.owners, tables, user=setting.user,
                           udfs=TPCH_UDFS)
    policy = service.policy
    sqls = {q.number: q.sql for q in all_queries() if q.number in TEMPLATES}
    for sql in sqls.values():  # plans, assignments, keys and results warm
        service.execute(sql)
    # cell: ms assign, ms keys + dispatch, ms run, hits, fragments,
    # re-plans, adopted
    cells = defaultdict(lambda: [0.0, 0.0, 0.0, 0, 0, 0, 0])
    current = []  # the (template, phase) being run

    def timed(column, function):
        def wrapper(*args, **kwargs):
            start = time.process_time()
            try:
                return function(*args, **kwargs)
            finally:
                cells[current[0]][column] += time.process_time() - start
        return wrapper

    # Rebound for the life of the process: this script exits when done.
    workload_module.assign = timed(0, workload_module.assign)
    QueryService._derived = timed(1, QueryService._derived)
    service.runtime.run = timed(2, service.runtime.run)

    def run_all(phase):
        for number, sql in sqls.items():
            current[:] = [(number, phase)]
            outcome = service.execute(sql)
            cell = cells[number, phase]
            cell[3] += outcome.trace.fragment_cache_hits
            cell[4] += len(outcome.trace.fragments_run)
            cell[5] += not outcome.assignment_cached
            cell[6] += outcome.reconcile.get("assignment_adopted", 0)

    for _ in range(cycles):
        revoked = policy.revoke("lineitem", PROVIDER)
        run_all("revoked")
        policy.grant(revoked)
        run_all("restored")
        for subject, name in OUTSIDERS:
            relation = schema.relation(name)
            policy.grant(Authorization(relation, (),
                                       relation.attribute_names, subject))
            run_all("outside")
            policy.revoke(name, subject)
            run_all("outside")
    print("template phase     assign ms  keys+dispatch ms  run ms"
          "  hits/fragments  re-plans  adopted  (per cycle)")
    totals = [0.0] * 7
    for (number, phase), cell in sorted(cells.items(), key=lambda item: (
            item[0][0], PHASES.index(item[0][1]))):
        totals = [t + c for t, c in zip(totals, cell)]
        print(row(f"Q{number}", phase, cell, cycles))
    print(row("all", "", totals, cycles))


def row(template: str, phase: str, cell, cycles: int) -> str:
    ms_assign, ms_keys, ms_run, hits, fragments, replans, adopted = (
        value / cycles for value in cell)
    return (f"{template:9}{phase:9}{1000 * ms_assign:10.1f}"
            f"{1000 * ms_keys:18.1f}{1000 * ms_run:8.1f}"
            f"{f'{hits:g}/{fragments:g}':>16}{replans:10g}{adopted:9g}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 3)
