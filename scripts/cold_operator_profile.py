#!/usr/bin/env python
"""Per template and operator class: calls, input rows, ms of a cold round
and µs per input row (also per class, over all templates).

Builds the UAPenc TPC-H service at scale 0.002, swaps the other dataset in
before every round (as ``cold_exec`` does, so every fragment executes) and
times each ``Executor.execute_node`` call — the operator's own work, its
operands are materialized; an Encrypt whose σ and π ran first is one
call over what they kept, also when π kept none of its columns (Q7's
``enc[l_shipdate]``) — and counts, per template, the values that go
through the executor's ``encrypt_column`` (sealed), those of them that
reach ``DeterministicCipher.encrypt_many`` (one per distinct value of a
DETERMINISTIC column, constants included), those of these the cipher
actually sealed (its memo's stores, one per miss: a value a subject
sealed under the same key in an earlier run is a hit, the subject's
keyring kept the key)
and the values through ``decrypt_column`` (opened; those §5 note 2
opens inside a selection apart), averaged over the rounds — the two
datasets in turn; a round on dataset 107 alone is the exact triple
``tests/engine/test_selection_safety_and_cost.py`` guards, and
``tests/distributed/test_keyring.py`` the seals paid.
The cyclic collector is run once before the timed rounds and kept off
during them (re-enabled after), so no collection pause lands on
whichever operator it happens to interrupt.
Usage: ``PYTHONPATH=src python scripts/cold_operator_profile.py [ROUNDS]``
"""
import gc
import sys
import time
from collections import Counter, defaultdict

import repro.engine.executor as executor_module
from repro.core.cache import Memo
from repro.crypto.symmetric import DeterministicCipher
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
    values: Counter = Counter()  # (template, sealed | det | opened | note 2)
    running = []  # the template, then the class of every open operator
    raw_node = Executor.execute_node
    raw_encrypt = executor_module.encrypt_column
    raw_decrypt = executor_module.decrypt_column
    raw_deterministic = DeterministicCipher.encrypt_many
    raw_store = Memo.store
    sealing = [None]  # the encrypt memo of the cipher now sealing

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

    def encrypt_many(cipher, column):
        values[running[0], "det"] += len(column)
        sealing[0] = cipher._encrypt_memo
        try:
            return raw_deterministic(cipher, column)
        finally:
            sealing[0] = None

    def store(memo, key, value):
        if memo is sealing[0]:  # a seal paid, exact also when full
            values[running[0], "paid"] += 1
        return raw_store(memo, key, value)

    def decrypt_column(material, column, pool=None):
        values[running[0], "opened"] += len(column)
        if running[-1] == "Selection":
            values[running[0], "note 2"] += len(column)
        return raw_decrypt(material, column, pool=pool)

    # Rebound for the life of the process: this script exits when done.
    Executor.execute_node = execute_node
    executor_module.encrypt_column = encrypt_column
    executor_module.decrypt_column = decrypt_column
    DeterministicCipher.encrypt_many = encrypt_many
    Memo.store = store
    gc.collect()
    gc.disable()
    try:
        for index in range(rounds):
            service.refresh_tables(datasets[(index + 1) % 2])
            for number, sql in sqls.items():
                running[:] = [number]
                service.execute(sql)
    finally:
        gc.enable()
    print("template operator          calls   rows in  ms/round  µs/row")
    totals: Counter = Counter()
    rows_in: Counter = Counter()
    for (number, operator), (calls, rows, seconds) in sorted(cells.items()):
        totals[operator] += seconds
        rows_in[operator] += rows
        print(f"Q{number:<8}{operator:18}{calls // rounds:6}"
              f"{rows // rounds:10}{1000 * seconds / rounds:10.1f}"
              f"{per_row(seconds, rows)}")
    for operator, seconds in totals.most_common():
        print(f"{'all':9}{operator:18}{'':6}{rows_in[operator] // rounds:10}"
              f"{1000 * seconds / rounds:10.1f}"
              f"{per_row(seconds, rows_in[operator])}"
              f"{100 * seconds / sum(totals.values()):6.1f} %")
    print("template   values sealed det cipher  det paid    opened"
          "  by note 2  (per round)")
    for (number, kind), count in list(values.items()):
        values["all", kind] += count
    for number in [*sqls, "all"]:
        sealed, det, paid, opened, note2 = (
            values[number, kind] // rounds
            for kind in ("sealed", "det", "paid", "opened", "note 2"))
        print(f"{number if number == 'all' else f'Q{number}':9}"
              f"{sealed:15}{det:11}{paid:10}{opened:10}{note2:11}")


def per_row(seconds: float, rows: int) -> str:
    """µs per input row, right-aligned; a leaf reads no input row."""
    return f"{1e6 * seconds / rows:8.2f}" if rows else f"{'-':>8}"


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 2)
