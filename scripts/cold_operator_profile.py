#!/usr/bin/env python
"""Per template and operator class: calls, input rows and ms of a cold round.

Builds the UAPenc TPC-H service at scale 0.002, swaps the other dataset in
before every round (as ``cold_exec`` does, so every fragment executes) and
times each ``Executor.execute_node`` call — the operator's own work, its
operands are materialized — and counts, per template, the values that go
through the executor's ``encrypt_column`` (sealed) and ``decrypt_column``
(opened; those §5 note 2 opens inside a selection apart), averaged over
the rounds — the two datasets in turn; a round on dataset 107 alone is the
exact pair ``tests/engine/test_selection_safety_and_cost.py`` guards.
Read shares over a few rounds: the collector runs where it runs.
Usage: ``PYTHONPATH=src python scripts/cold_operator_profile.py [ROUNDS]``
"""
import sys
import time
from collections import Counter, defaultdict

import repro.engine.executor as executor_module
from repro.engine import Executor
from repro.service import QueryService
from repro.tpch import (
    AUTHORITY_TABLES, TPCH_UDFS, all_queries, build_tpch_schema, generate,
    scenario)


def main(rounds: int = 2) -> None:
    schema = build_tpch_schema(0.002)
    datasets = [{authority: {name: data.table(name) for name in names}
                 for authority, names in AUTHORITY_TABLES.items()}
                for data in (generate(0.002, seed=s) for s in (107, 115))]
    setting = scenario("UAPenc", schema)
    service = QueryService(schema, setting.policy, setting.subjects,
                           setting.owners, datasets[0], user=setting.user,
                           udfs=TPCH_UDFS)
    sqls = {q.number: q.sql for q in all_queries() if q.sql is not None}
    for sql in sqls.values():  # plans, assignments and keys warm
        service.execute(sql)
    cells = defaultdict(lambda: [0, 0, 0.0])  # calls, input rows, seconds
    values: Counter = Counter()  # (template, sealed | opened | note 2)
    running = []  # the template, then the class of every open operator
    raw_node = Executor.execute_node
    raw_encrypt = executor_module.encrypt_column
    raw_decrypt = executor_module.decrypt_column

    def execute_node(self, node, children):
        running.append(type(node).__name__)
        start = time.perf_counter()
        try:
            return raw_node(self, node, children)
        finally:
            cell = cells[running[0], running.pop()]
            cell[0] += 1
            cell[1] += sum(map(len, children))
            cell[2] += time.perf_counter() - start

    def encrypt_column(material, column, pool=None):
        values[running[0], "sealed"] += len(column)
        return raw_encrypt(material, column, pool=pool)

    def decrypt_column(material, column, pool=None):
        values[running[0], "opened"] += len(column)
        if running[-1] == "Selection":
            values[running[0], "note 2"] += len(column)
        return raw_decrypt(material, column, pool=pool)

    # Rebound for the life of the process: this script exits when done.
    Executor.execute_node = execute_node
    executor_module.encrypt_column = encrypt_column
    executor_module.decrypt_column = decrypt_column
    for index in range(rounds):
        service.refresh_tables(datasets[(index + 1) % 2])
        for number, sql in sqls.items():
            running[:] = [number]
            service.execute(sql)
    print("template operator          calls   rows in  ms/round")
    totals: Counter = Counter()
    for (number, operator), (calls, rows, seconds) in sorted(cells.items()):
        totals[operator] += seconds
        print(f"Q{number:<8}{operator:18}{calls // rounds:6}"
              f"{rows // rounds:10}{1000 * seconds / rounds:10.1f}")
    for operator, seconds in totals.most_common():
        print(f"{'all':9}{operator:34}{1000 * seconds / rounds:10.1f}"
              f"{100 * seconds / sum(totals.values()):6.1f} %")
    print("template   values sealed    opened  by note 2  (per round)")
    for (number, kind), count in list(values.items()):
        values["all", kind] += count
    for number in [*sqls, "all"]:
        sealed, opened, note2 = (values[number, kind] // rounds
                                 for kind in ("sealed", "opened", "note 2"))
        print(f"{number if number == 'all' else f'Q{number}':9}"
              f"{sealed:15}{opened:10}{note2:11}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 2)
