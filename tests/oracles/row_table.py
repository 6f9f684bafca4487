"""The relational operators on plain lists of row tuples.

The reference the columnar :class:`~repro.engine.table.Table` is judged
against (``tests/properties/test_columnar_table.py``).  Rows are what a
table's ``rows`` view hands out, so a sealed cell is an
:class:`~repro.engine.values.EncryptedValue`.  π keeps every row, in
order (a bag, as SQL's; onto no column, one empty row per input
row), σ is ``oracles.row_predicate``'s row closure,
× and ⋈ are ``oracles.nested_loop``'s ``σ_C(L × R)``, and γ groups rows
in first-seen order, NULL with NULL, an encrypted cell by its token.
Nothing here is imported from the table or the executor it judges.
"""

from __future__ import annotations

from repro.core.operators import AggregateFunction, GroupBy
from repro.core.requirements import EncryptionScheme
from repro.engine.values import EncryptedAggregate, EncryptedValue
from repro.exceptions import ExecutionError

from oracles.nested_loop import join_rows
from oracles.row_predicate import compile_row_predicate

Rows = list[tuple]


def project(columns: tuple[str, ...], rows: Rows,
            kept: list[str]) -> Rows:
    """π onto ``kept`` (in ``columns`` order), duplicates kept."""
    positions = [columns.index(column) for column in kept]
    return [tuple(row[p] for p in positions) for row in rows]


def select(columns: tuple[str, ...], rows: Rows, predicate, encryptor,
           keystore=None) -> Rows:
    """σ through the seed's row closure."""
    keep = compile_row_predicate(predicate, columns, encryptor,
                                 local_keystore=keystore)
    return [row for row in rows if keep(row)]


def product(left: Rows, right: Rows) -> Rows:
    """×: every pair, left-major."""
    return join_rows([], (), left, right)


def join(condition, columns: tuple[str, ...], left: Rows,
         right: Rows) -> Rows:
    """⋈: ``σ_C(L × R)``."""
    return join_rows(condition.basic_conditions(), columns, left, right)


def _key(cell: object) -> object:
    if isinstance(cell, EncryptedValue):
        if cell.scheme not in (EncryptionScheme.DETERMINISTIC,
                               EncryptionScheme.OPE):
            raise ExecutionError(f"{cell.scheme} cannot be grouped")
        return cell.key_name, cell.token
    return cell


def _aggregate(function: AggregateFunction, values: list) -> object:
    present = [value for value in values if value is not None]
    if function is AggregateFunction.COUNT:
        return len(present)
    if not present:
        return None
    if isinstance(present[0], EncryptedValue):
        order = function in (AggregateFunction.MIN, AggregateFunction.MAX)
        needed = EncryptionScheme.OPE if order else EncryptionScheme.PAILLIER
        if present[0].scheme is not needed:
            raise ExecutionError(f"{function} over {present[0].scheme}")
        if order:
            pick = min if function is AggregateFunction.MIN else max
            return pick(present, key=lambda cell: cell.token)
        total = sum(cell.token for cell in present)
        return EncryptedAggregate(present[0].key_name, total, len(present),
                                  function is AggregateFunction.AVG)
    if function is AggregateFunction.SUM:
        return sum(present)
    if function is AggregateFunction.AVG:
        return sum(present) / len(present)
    return (min if function is AggregateFunction.MIN else max)(present)


def group_by(node: GroupBy, columns: tuple[str, ...], rows: Rows) -> Rows:
    """γ: one row per group (the grouping columns in ``columns`` order,
    then each aggregate); a global aggregate over no row yields one."""
    keys = [columns.index(c) for c in columns if c in node.group_attributes]
    if not rows and not keys:
        return [tuple(0 if a.function is AggregateFunction.COUNT else None
                      for a in node.aggregates)]
    groups: dict[tuple, Rows] = {}
    for row in rows:
        groups.setdefault(tuple(_key(row[p]) for p in keys), []).append(row)
    return [
        tuple(members[0][p] for p in keys) + tuple(
            len(members) if a.attribute is None else _aggregate(
                a.function, [m[columns.index(a.attribute)] for m in members])
            for a in node.aggregates)
        for members in groups.values()]
