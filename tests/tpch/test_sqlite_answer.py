"""The single-site ``Executor`` against SQL's own answer.

Each of the 17 TPC-H templates written as SQL runs twice on dataset 107
at scale 0.002 (the benchmark's first data seed): through the planner
and the ``Executor``, and as the very same text through stdlib sqlite3
(``tests/oracles/sqlite_answer.py``).  Answers compare as bags of rows
with columns by position: a plan carries the SELECT order and the
``Executor`` hands its result back in it, in every join order
:func:`~repro.sql.planner.join_orders` offers (Q3 and Q18 came back in
operand order until then, and their owner-first plans in another).
Each template also runs over the same dataset with a tenth of its
non-key measures NULL (``generate(null_rate=0.1)``), so the kernels'
NULL branches answer to sqlite too.

All 17 agree, both ways.  Until projection kept every row and the
planner kept every WHERE conjunct (ROADMAP item 11), seven did not: Q1,
Q4, Q12, Q13, Q16 and Q18 counted or summed over distinct projected
rows, and Q5 lost ``c_nationkey = s_nationkey``.

The paper's ``Hosp`` and ``Ins`` with NULLs in every column judge the
NULL rule on its own: a NULL operand satisfies no comparison, ``<>``,
``IN``, ``LIKE``, a join key and a join residual included.  Until that
rule, ``<>`` kept the rows whose operand was NULL and a NULL join key
matched a NULL one.
"""

import ast
import inspect

import pytest

from repro.engine import Executor, Table
from repro.paper_example import build_schema
from repro.sql.planner import join_orders, plan_query
from repro.tpch import TPCH_UDFS, all_queries, build_tpch_schema
from repro.tpch.schema import table_owners

from oracles import sqlite_answer as oracle

SCALE, SEED = 0.002, 107
#: The share of non-key measures blanked for the NULL-bearing run.
NULL_RATE = 0.1

TEMPLATES = [query for query in all_queries() if query.sql is not None]

#: The paper's two relations, a NULL in every column.
SPARSE_EXAMPLE = {
    "Hosp": Table("Hosp", ("S", "B", "D", "T"), [
        ("s1", 1980, "stroke", "tpa"), ("s2", None, None, "rest"),
        ("s3", 1990, "flu", None), ("s4", 1960, "stroke", "surgery"),
        (None, 1975, "flu", "tpa")]),
    "Ins": Table("Ins", ("C", "P"), [
        ("s1", 1980.0), ("s2", None), ("s3", 200.0), ("s4", 1960.0),
        (None, 50.0)]),
}
NULL_OPERANDS = [
    "select S, T from Hosp where D <> 'stroke'",
    "select S, T from Hosp where B <> 1980",
    "select S, D from Hosp where D in ('stroke', 'flu')",
    "select S from Hosp where T like 't%'",
    "select S, T from Hosp where B < 1985",
    "select S, P from Hosp join Ins on S = C where P <> 1980.0",
    "select S, P from Hosp join Ins on S = C and B <> P",
    "select S, P from Hosp join Ins on S = C and B = P",
    "select D, count(B) as n, sum(B) as b from Hosp group by D",
]


def _databases(tpch_data, null_rate):
    data = tpch_data(SCALE, SEED, null_rate)
    connection = oracle.load(data.catalog())
    return build_tpch_schema(SCALE), data, connection


@pytest.fixture(scope="module")
def database(tpch_data):
    schema, data, connection = _databases(tpch_data, 0.0)
    yield schema, data, connection
    connection.close()


@pytest.fixture(scope="module")
def sparse_database(tpch_data):
    schema, data, connection = _databases(tpch_data, NULL_RATE)
    yield schema, data, connection
    connection.close()


def difference(catalog, connection, sql, plan):
    """What the ``Executor``'s answer to ``plan`` lacks of sqlite's
    answer to ``sql``, or ``None``."""
    result = Executor(catalog, udfs=TPCH_UDFS).execute(plan)
    return oracle.answer_difference(oracle.answer(connection, sql),
                                    (tuple(result.columns), result.rows))


def test_seventeen_templates_are_sql():
    assert len(TEMPLATES) == 17


@pytest.mark.parametrize("template", [
    pytest.param(query, id=f"Q{query.number}") for query in TEMPLATES])
def test_executor_answers_what_sqlite_answers(database, template):
    schema, data, connection = database
    assert difference(data.catalog(), connection, template.sql,
                      template.plan(schema)) is None


@pytest.mark.parametrize("template", [
    pytest.param(query, id=f"Q{query.number}") for query in TEMPLATES])
def test_executor_answers_what_sqlite_answers_over_nulls(sparse_database,
                                                        template):
    schema, data, connection = sparse_database
    assert difference(data.catalog(), connection, template.sql,
                      template.plan(schema)) is None


@pytest.mark.parametrize("template", [
    pytest.param(query, id=f"Q{query.number}") for query in TEMPLATES])
def test_every_join_order_answers_what_sqlite_answers(database, template):
    schema, data, connection = database
    orders = join_orders(template.sql, schema, table_owners())
    for order in orders:
        assert difference(data.catalog(), connection, template.sql,
                          plan_query(template.sql, schema, order)) is None


def test_result_columns_come_back_in_select_order(database):
    schema, data, _ = database
    q3 = TEMPLATES[2]
    executor = Executor(data.catalog(), udfs=TPCH_UDFS)
    for order in join_orders(q3.sql, schema, table_owners()):
        assert executor.execute(plan_query(q3.sql, schema, order)).columns \
            == ("l_orderkey", "o_orderdate", "o_shippriority", "revenue")


@pytest.mark.parametrize("sql", NULL_OPERANDS)
def test_a_null_operand_satisfies_no_comparison(sql):
    connection = oracle.load(SPARSE_EXAMPLE)
    try:
        assert difference(SPARSE_EXAMPLE, connection, sql,
                          plan_query(sql, build_schema())) is None
    finally:
        connection.close()


def test_the_oracle_imports_nothing_it_judges():
    tree = ast.parse(inspect.getsource(oracle))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert not {name for name in imported
                if name.startswith(("repro.engine", "repro.sql"))}
