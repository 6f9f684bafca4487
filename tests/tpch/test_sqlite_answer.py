"""The single-site ``Executor`` against SQL's own answer.

Each of the 17 TPC-H templates written as SQL runs twice on dataset 107
at scale 0.002 (the benchmark's first data seed): through the planner
and the ``Executor``, and as the very same text through stdlib sqlite3
(``tests/oracles/sqlite_answer.py``).  Answers compare as bags of rows
with columns matched by name, because the ``Executor`` emits some
templates' columns in operand order rather than SELECT order (Q3, Q18).

All 17 agree.  Until projection kept every row and the planner kept
every WHERE conjunct (ROADMAP item 11), seven did not: Q1, Q4, Q12,
Q13, Q16 and Q18 counted or summed over distinct projected rows, and
Q5 lost ``c_nationkey = s_nationkey``.
"""

import ast
import inspect

import pytest

from repro.engine import Executor
from repro.tpch import TPCH_UDFS, all_queries, build_tpch_schema

from oracles import sqlite_answer as oracle

SCALE, SEED = 0.002, 107

TEMPLATES = [query for query in all_queries() if query.sql is not None]


@pytest.fixture(scope="module")
def database(tpch_data):
    return build_tpch_schema(SCALE), tpch_data(SCALE, SEED)


def test_seventeen_templates_are_sql():
    assert len(TEMPLATES) == 17


@pytest.mark.parametrize("template", [
    pytest.param(query, id=f"Q{query.number}") for query in TEMPLATES])
def test_executor_answers_what_sqlite_answers(database, template):
    schema, data = database
    result = Executor(data.catalog(), udfs=TPCH_UDFS).execute(
        template.plan(schema))
    expected = oracle.sqlite_answer(data.catalog(), template.sql)
    difference = oracle.answer_difference(
        expected, (tuple(result.columns), result.rows))
    assert difference is None, difference


def test_the_oracle_imports_nothing_it_judges():
    tree = ast.parse(inspect.getsource(oracle))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert not {name for name in imported
                if name.startswith(("repro.engine", "repro.sql"))}
