#!/usr/bin/env python
"""Plan regret over the two join orders: is the order the service chose
the one that runs fastest?

For each executing cell — the 17 SQL templates under UA, UAPenc and
UAPmix at scale 0.002 — builds the scenario's ``QueryService`` and lets
it choose between FROM order and owner-first
(:func:`repro.sql.planner.join_orders`, priced by ``assign``).  Each
order the cell has is then run cold ``K`` times, interleaved, on the
service's runtime: before every run ``refresh_tables`` swaps in the
other dataset (seeds 107 and 115, as ``cold_exec`` does), so every
fragment executes while assignments, keys and keyrings stay warm (one
untimed run per order warms them first).  A run is timed with
``time.process_time`` around ``runtime.run``, and its answer must be
sqlite's (``tests/oracles/sqlite_answer.py``, columns by position).

Prints per cell the §7 estimate and median ms of each order and the
regret: the chosen order's median over the faster one's (1.00 when the
cell has one order).  Then the regret geomean, the Spearman rank
correlation of the §7 estimate against measured time over every
(cell, order) run, and every cell whose regret is above 1.2.  Exits 1
if any answer differs from sqlite's.
Usage: ``PYTHONPATH=src python scripts/plan_regret.py [K] [Q5/UAPenc …]``
(K = 5 by default, every cell when none is named).
"""
import math
import statistics
import sys
import time
from pathlib import Path

from repro.core.assignment import assign
from repro.core.dispatch import dispatch
from repro.crypto.keymanager import DistributedKeys
from repro.service import QueryService
from repro.sql.planner import join_orders, plan_query
from repro.tpch import (
    AUTHORITY_TABLES, SCENARIOS, TPCH_UDFS, all_queries, build_tpch_schema,
    generate, scenario)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from oracles import sqlite_answer  # noqa: E402

SCALE = 0.002
DATA_SEEDS = (107, 115)
#: A cell whose chosen order runs this much slower than the other is
#: named.
REGRET_LIMIT = 1.2
SQL = {q.number: q.sql for q in all_queries() if q.sql is not None}
CELLS = tuple((number, name) for name in SCENARIOS for number in SQL)


def measure(cells=CELLS, repeats: int = 5) -> list[dict]:
    """One row per cell: per order its label, estimate, median ms and
    whether every run matched sqlite, plus the cell's regret."""
    schema = build_tpch_schema(SCALE)
    datasets = [generate(SCALE, seed=seed) for seed in DATA_SEEDS]
    tables = [{authority: {name: data.table(name) for name in names}
               for authority, names in AUTHORITY_TABLES.items()}
              for data in datasets]
    oracles = []
    for data in datasets:
        connection = sqlite_answer.load(data.catalog())
        oracles.append({number: sqlite_answer.answer(connection, SQL[number])
                        for number in {number for number, _ in cells}})
        connection.close()
    rows = []
    for name in dict.fromkeys(name for _, name in cells):
        setting = scenario(name, schema)
        service = QueryService(schema, setting.policy, setting.subjects,
                               setting.owners, tables[0], user=setting.user,
                               udfs=TPCH_UDFS)
        for number in (n for n, cell in cells if cell == name):
            rows.append(_cell(service, schema, number, name, tables,
                              oracles, repeats))
    return rows


def _cell(service, schema, number, name, tables, oracles, repeats):
    sql, user = SQL[number], service.user
    chosen = service.execute(sql).assignment.extended.original
    runs = []
    for label, order in zip(("FROM", "owner-first"),
                            join_orders(sql, schema, service.owners)):
        plan = chosen if _order(chosen) == order else \
            plan_query(sql, schema, order)
        result = assign(plan, service.policy, service.subject_names,
                        service.prices, user=user, owners=service.owners)
        keys = DistributedKeys.from_assignment(result.keys)
        rendered = dispatch(result.extended, result.keys,
                            owners=service.owners, user=user)
        runs.append({"label": label, "chosen": plan is chosen,
                     "estimate": result.cost.total_usd, "ms": [],
                     "agrees": True,
                     "run": (rendered, result.extended, result.keys, keys)})
    for index in range(repeats + 1):  # run 0 warms keys and keyrings
        for run in runs:
            dataset = index % 2
            service.refresh_tables(tables[dataset])
            started = time.process_time()
            table, _ = service.runtime.run(*run["run"], user=user)
            elapsed = time.process_time() - started
            if index:
                run["ms"].append(1000.0 * elapsed)
            run["agrees"] &= sqlite_answer.answer_difference(
                oracles[dataset][number],
                (tuple(table.columns), table.rows)) is None
    for run in runs:
        del run["run"]
        run["ms"] = statistics.median(run["ms"])
    fastest = min(run["ms"] for run in runs)
    kept = next(run for run in runs if run["chosen"])
    return {"cell": f"Q{number}/{name}", "runs": runs,
            "regret": kept["ms"] / fastest}


def _order(plan) -> tuple[str, ...]:
    return tuple(leaf.relation.name for leaf in plan.leaves())


def spearman(xs, ys) -> float:
    """Spearman's rank correlation (average ranks on ties)."""
    def ranks(values):
        ordered = sorted(range(len(values)), key=values.__getitem__)
        out = [0.0] * len(values)
        start = 0
        while start < len(ordered):
            end = start
            while end + 1 < len(ordered) and \
                    values[ordered[end + 1]] == values[ordered[start]]:
                end += 1
            for position in ordered[start:end + 1]:
                out[position] = (start + end) / 2.0
            start = end + 1
        return out
    rx, ry = ranks(xs), ranks(ys)
    mx, my = statistics.fmean(rx), statistics.fmean(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    return cov / math.sqrt(sum((a - mx) ** 2 for a in rx)
                           * sum((b - my) ** 2 for b in ry))


def main(repeats: int, cells) -> int:
    rows = measure(cells, repeats)
    print(f"cell          chosen        est FROM  est owner-1st"
          f"  ms FROM  ms owner-1st  regret   (K={repeats})")
    for row in rows:
        runs = {run["label"]: run for run in row["runs"]}
        other = runs.get("owner-first")
        chosen = next(run["label"] for run in row["runs"] if run["chosen"])
        print(f"{row['cell']:14}{chosen:12}{runs['FROM']['estimate']:10.3e}"
              + (f"{other['estimate']:15.3e}" if other else f"{'—':>15}")
              + f"{runs['FROM']['ms']:9.2f}"
              + (f"{other['ms']:14.2f}" if other else f"{'—':>14}")
              + f"{row['regret']:8.2f}")
    runs = [run for row in rows for run in row["runs"]]
    regrets = [row["regret"] for row in rows]
    geomean = math.exp(statistics.fmean(map(math.log, regrets)))
    print(f"regret geomean {geomean:.3f}, max {max(regrets):.3f} over "
          f"{len(rows)} cells")
    if len(runs) > 2:
        rho = spearman([run["estimate"] for run in runs],
                       [run["ms"] for run in runs])
        print(f"Spearman(§7 estimate, measured ms) over {len(runs)} "
              f"runs: {rho:.3f}")
    above = [row["cell"] for row in rows if row["regret"] > REGRET_LIMIT]
    print(f"regret above {REGRET_LIMIT}: {', '.join(above) or 'none'}")
    wrong = [row["cell"] for row in rows
             if not all(run["agrees"] for run in row["runs"])]
    print(f"answers differing from sqlite: {', '.join(wrong) or 'none'}")
    return 1 if wrong else 0


def parse_cell(text: str) -> tuple[int, str]:
    number, name = text.split("/")
    return int(number.lstrip("Q")), name


if __name__ == "__main__":
    arguments = sys.argv[1:]
    count = int(arguments.pop(0)) if arguments and arguments[0].isdigit() \
        else 5
    sys.exit(main(count, tuple(map(parse_cell, arguments)) or CELLS))
