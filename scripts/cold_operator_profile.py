#!/usr/bin/env python
"""Per template and operator class: calls, input rows, ms of a cold round
and µs per input row (also per class, over all templates).

Builds the UAPenc TPC-H service at scale 0.002, swaps the other dataset in
before every round (as ``cold_exec`` does, so every fragment executes) and
reads each query's node rows (``ExecutionTrace.nodes``, one per node an
executor evaluated: the operator's own seconds, its operands already
materialized; an Encrypt whose σ and π ran first is one row over what
they kept, also when π kept none of its columns, Q7's
``enc[l_shipdate]``).  Per template, the rows give the values sealed
(the cells Encrypt hands ``encrypt_column``) and opened (through
``decrypt_column``; those §5 note 2 opens inside a selection apart).
Two counts live inside the cipher, where no row reaches, and are taken
by rebinding it: the values that reach
``DeterministicCipher.encrypt_many`` (one per distinct value of a
DETERMINISTIC column, constants included) and those of these the
cipher actually sealed (its memo's stores, one per miss: a value a
subject sealed under the same key in an earlier run is a hit, the
subject's keyring kept the key).  Everything is averaged over the
rounds — the two datasets in turn; a round on dataset 107 alone is the
exact triple ``tests/engine/test_selection_safety_and_cost.py`` guards,
and ``tests/distributed/test_keyring.py`` the seals paid.
The cyclic collector is run once before the timed rounds and kept off
during them (re-enabled after), so no collection pause lands on
whichever operator it happens to interrupt.
Usage: ``PYTHONPATH=src python scripts/cold_operator_profile.py [ROUNDS]``
"""
import gc
import sys
from collections import Counter, defaultdict

from repro.core.cache import Memo
from repro.core.operators import Selection
from repro.crypto.symmetric import DeterministicCipher
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
    values: Counter = Counter()  # (template, kind of value) → count
    running = [None]  # the template now running
    raw_deterministic = DeterministicCipher.encrypt_many
    raw_store = Memo.store
    sealing = [None]  # the encrypt memo of the cipher now sealing

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

    # Rebound for the life of the process: this script exits when done.
    DeterministicCipher.encrypt_many = encrypt_many
    Memo.store = store
    gc.collect()
    gc.disable()
    try:
        for index in range(rounds):
            service.refresh_tables(datasets[(index + 1) % 2])
            for number, sql in sqls.items():
                running[0] = number
                for _, _, node, rows, _, sealed, opened, seconds in \
                        service.execute(sql).trace.nodes:
                    cell = cells[number, type(node).__name__]
                    cell[0] += 1
                    cell[1] += rows
                    cell[2] += seconds
                    values[number, "sealed"] += sealed
                    values[number, "opened"] += opened
                    if isinstance(node, Selection):
                        values[number, "note 2"] += opened
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
