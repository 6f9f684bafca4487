"""SQL's own answer to a query: the same SQL text, run by stdlib sqlite3.

An answer oracle that is not the engine under test.  The tables are
loaded into an in-memory ``sqlite3`` database and the very SQL text of a
template runs there, with three adaptations and no others:

* dates are stored as ISO strings, and each ``date '…'`` literal is
  rewritten to ``'…'``, so dates compare in date order;
* ``LIKE`` is case-sensitive (``pragma case_sensitive_like``), as in SQL;
* an answer is a bag of rows: columns are compared by position, name
  and all (SQL's result order is the SELECT list's, whatever order the
  joins ran in), rows in any order, and numbers to 1e-6.

Nothing here is imported from ``repro.engine`` or ``repro.sql``.
"""

from __future__ import annotations

import math
import re
import sqlite3
from collections.abc import Iterable, Mapping, Sequence
from datetime import date

#: ``(column names, rows)``.
Answer = tuple[tuple[str, ...], list[tuple[object, ...]]]

_DATE_LITERAL = re.compile(r"\bdate\s+'", re.IGNORECASE)

#: Relative and absolute tolerance of a number.
TOLERANCE = 1e-6


def sqlite_answer(tables: Mapping[str, object], sql: str) -> Answer:
    """Run ``sql`` over ``tables`` in a fresh in-memory database.

    A table is anything with a ``columns`` sequence that iterates its
    rows as tuples.
    """
    connection = load(tables)
    try:
        return answer(connection, sql)
    finally:
        connection.close()


def load(tables: Mapping[str, object]) -> sqlite3.Connection:
    """A fresh in-memory database holding ``tables``, for :func:`answer`
    to run any number of statements over; the caller closes it."""
    connection = sqlite3.connect(":memory:")
    connection.execute("pragma case_sensitive_like = on")
    for name, table in tables.items():
        columns = ", ".join(f'"{column}"' for column in table.columns)
        marks = ", ".join("?" * len(table.columns))
        connection.execute(f'create table "{name}" ({columns})')
        connection.executemany(
            f'insert into "{name}" values ({marks})',
            (tuple(map(_stored, row)) for row in table))
    return connection


def answer(connection: sqlite3.Connection, sql: str) -> Answer:
    """``sql``'s answer over a database :func:`load` built."""
    cursor = connection.execute(_DATE_LITERAL.sub("'", sql))
    return tuple(column[0] for column in cursor.description), \
        cursor.fetchall()


def answer_difference(expected: Answer, actual: Answer) -> str | None:
    """``None`` when the two answers are the same bag of rows, columns
    compared by position, name and all; else what differs first."""
    names, rows = expected
    actual_names, actual_rows = actual
    if tuple(names) != tuple(actual_names):
        return f"columns {list(names)} != {list(actual_names)}"
    if len(rows) != len(actual_rows):
        return f"{len(rows)} rows != {len(actual_rows)} rows"
    for want, got in zip(_bag(rows), _bag(actual_rows)):
        if not all(map(_same_value, want, got)):
            return f"row {want} != {got}"
    return None


def _stored(value: object) -> object:
    return value.isoformat() if isinstance(value, date) else value


def _bag(rows: Iterable[Sequence[object]]) -> list[tuple[object, ...]]:
    normal = [tuple(map(_stored, row)) for row in rows]
    return sorted(normal, key=lambda row: tuple(map(_order, row)))


def _order(value: object) -> tuple[int, object]:
    if value is None:
        return 0, 0
    if _is_number(value):
        return 1, float(value)
    if isinstance(value, str):
        return 2, value
    return 3, repr(value)


def _same_value(want: object, got: object) -> bool:
    if _is_number(want) and _is_number(got):
        return math.isclose(want, got, rel_tol=TOLERANCE,
                            abs_tol=TOLERANCE)
    return want == got


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)
