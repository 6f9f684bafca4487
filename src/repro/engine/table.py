"""In-memory relations, stored by column.

A :class:`Table` is one immutable sequence per column plus a row count —
the runtime counterpart of the model-level
:class:`repro.core.schema.Relation`.  Tables are cheap value objects:
the executor produces a new table per plan node, and a projection, a
rename or an unchanged column shares the sequences it keeps, so no
operator copies a column it does not change.

A table states one representation per column
(:func:`~repro.engine.values.representation`: none, plaintext, a key
and scheme, or an aggregate's key).  It is read where a column is born
— the constructor, a column :meth:`with_column` swaps in (Encrypt,
Decrypt), and the columns the executor computes for γ and µ — and a
second non-NULL representation is refused there; every other
transformation carries it, and the operators and the receipt check read
it instead of the cells.  A column stated ``(key, scheme)`` holds the
raw tokens of a :class:`~repro.engine.values.SealedColumn`; the row
views (:attr:`rows`, iteration, :meth:`iter_dicts`,
:meth:`column_values`) hand its cells out as
:class:`~repro.engine.values.EncryptedValue` objects, built on each
call.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from repro.engine.values import (
    SealedColumn, as_column, is_sealed, representation)
from repro.exceptions import ExecutionError


class Table:
    """A named, column-ordered, in-memory relation.

    Examples
    --------
    >>> t = Table("Ins", ("C", "P"), [("alice", 120.0), ("bob", 80.0)])
    >>> t.column_values("P")
    [120.0, 80.0]
    >>> len(t)
    2
    >>> t.representation("P")
    'plaintext'
    """

    __slots__ = ("name", "columns", "data", "representations", "_count",
                 "_index", "_positions_cache")

    def __init__(self, name: str, columns: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> None:
        columns = tuple(columns)
        rows = [tuple(row) for row in rows]
        width = len(columns)
        for row in rows:
            if len(row) != width:
                raise ExecutionError(
                    f"row width {len(row)} != column count {width} "
                    f"in table {name}"
                )
        cells = zip(*rows) if rows else [()] * width
        born = [stored(column_cells, column)
                for column_cells, column in zip(cells, columns)]
        self._set(name, columns, tuple(data for data, _ in born),
                  tuple(kind for _, kind in born), len(rows))

    def _set(self, name: str, columns: tuple[str, ...],
             data: tuple[Sequence[object], ...],
             representations: tuple[object, ...], count: int) -> None:
        self.name = name
        self.columns = columns
        self.data = data
        self.representations = representations
        self._count = count
        self._index = {c: i for i, c in enumerate(columns)}
        if len(self._index) != len(columns):
            raise ExecutionError(f"duplicate columns in table {name}")
        self._positions_cache: dict[tuple[str, ...], tuple[int, ...]] = {}

    @classmethod
    def _of(cls, name: str, columns: tuple[str, ...],
            data: tuple[Sequence[object], ...],
            representations: tuple[object, ...], count: int) -> "Table":
        """Internal constructor over columns the engine carried or built
        through :func:`stored`; clashing column names (a join's) still
        fail loudly."""
        table = cls.__new__(cls)
        table._set(name, columns, data, representations, count)
        return table

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def column_position(self, column: str) -> int:
        """Index of ``column`` in :attr:`columns`."""
        try:
            return self._index[column]
        except KeyError:
            raise ExecutionError(
                f"table {self.name} has no column {column!r}"
            ) from None

    def positions(self, columns: Sequence[str]) -> tuple[int, ...]:
        """Indices of ``columns``, cached per column list."""
        key = tuple(columns)
        cached = self._positions_cache.get(key)
        if cached is None:
            cached = tuple(self.column_position(c) for c in key)
            self._positions_cache[key] = cached
        return cached

    def representation(self, column: str) -> object | None:
        """The stated representation of ``column``."""
        return self.representations[self.column_position(column)]

    def column(self, column: str) -> Sequence[object]:
        """One column as the codec takes it: a
        :class:`~repro.engine.values.SealedColumn` over the stored
        tokens of a sealed column, the stored sequence otherwise."""
        position = self.column_position(column)
        return as_column(self.representations[position], self.data[position])

    def column_values(self, column: str) -> list[object]:
        """All values of one column, in row order."""
        return list(self.column(column))

    @property
    def rows(self) -> list[tuple[object, ...]]:
        """The rows, as a new list of tuples on every read."""
        if not self.columns:
            return [()] * self._count
        return list(zip(*map(self.column, self.columns)))

    def iter_dicts(self) -> Iterator[dict[str, object]]:
        """Rows as dictionaries."""
        return (dict(zip(self.columns, row)) for row in self.rows)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[tuple[object, ...]]:
        return iter(self.rows)

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def bulk_project(self, columns: Sequence[str],
                     name: str | None = None) -> "Table":
        """Projection (a bag: every row kept, in order); the kept columns
        are shared, not copied."""
        positions = self.positions(columns)
        return Table._of(
            name or self.name, tuple(columns),
            tuple(self.data[p] for p in positions),
            tuple(self.representations[p] for p in positions), self._count)

    def take(self, indices: Sequence[int], name: str) -> "Table":
        """The rows at ``indices``, in that order, one gather per
        column."""
        return Table._of(name, self.columns,
                         tuple(gather(column, indices)
                               for column in self.data),
                         self.representations, len(indices))

    def with_column(self, column: str, cells: Sequence[object],
                    name: str | None = None) -> "Table":
        """This table with ``column`` swapped for ``cells`` (a list or a
        :class:`~repro.engine.values.SealedColumn`), whose
        representation is read here; every other column is shared."""
        if len(cells) != self._count:
            raise ExecutionError(
                f"replacement for column {column!r} has "
                f"{len(cells)} values for {self._count} rows"
            )
        return self._swapped(self.column_position(column),
                             *stored(cells, column), name)

    def _swapped(self, position: int, data: Sequence[object], kind: object,
                 name: str | None = None) -> "Table":
        """This table with the column at ``position`` stored as ``data``
        and stated ``kind``."""
        return Table._of(
            name or self.name, self.columns,
            self.data[:position] + (data,) + self.data[position + 1:],
            self.representations[:position] + (kind,)
            + self.representations[position + 1:], self._count)

    def rename(self, name: str) -> "Table":
        """The same columns under a new name; nothing is copied."""
        return Table._of(name, self.columns, self.data,
                         self.representations, self._count)

    # ------------------------------------------------------------------
    # Comparison helpers (tests)
    # ------------------------------------------------------------------
    def sorted_rows(self) -> list[tuple[object, ...]]:
        """Rows sorted by repr — stable order-insensitive comparison."""
        return sorted(self.rows, key=repr)

    def same_content(self, other: "Table") -> bool:
        """Order-insensitive equality on (columns, rows)."""
        return (self.columns == other.columns
                and self.sorted_rows() == other.sorted_rows())

    def __repr__(self) -> str:
        return (f"Table({self.name}: {', '.join(self.columns)}; "
                f"{self._count} rows)")


def stored(cells: Sequence[object],
           column: str) -> tuple[tuple[object, ...], object | None]:
    """A column born from ``cells`` as a table stores it, and its
    representation: the tokens of a sealed column, or of a column of
    :class:`~repro.engine.values.EncryptedValue` cells, and the cells
    of any other."""
    kind = representation(cells, column)
    if isinstance(cells, SealedColumn):
        return cells.tokens, kind
    if is_sealed(kind):
        return tuple(None if cell is None else cell.raw  # type: ignore
                     for cell in cells), kind
    return tuple(cells), kind


def gather(column: Sequence[object],
           indices: Sequence[int]) -> tuple[object, ...]:
    """``column``'s cells at ``indices``, in one C-level pass."""
    if len(indices) > 1:
        return itemgetter(*indices)(column)
    return tuple(column[index] for index in indices)
