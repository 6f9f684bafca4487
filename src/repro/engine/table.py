"""In-memory relations.

A :class:`Table` is an ordered list of equally shaped tuples with named
columns — the runtime counterpart of the model-level
:class:`repro.core.schema.Relation`.  Tables are cheap value objects: the
executor produces a new table per plan node.

The engine hot path works in *batches*: a table caches the column→index
map and per-column-list position tuples, and exposes
:meth:`bulk_project` / :meth:`replace_columns` so operators resolve
positions once per node instead of once per row.

A table states one representation per column
(:func:`~repro.engine.values.representation`: none, plaintext, or a
key and scheme).  It is read from the cells only where a column is
born — the constructor, the columns :meth:`replace_columns` (Encrypt,
Decrypt) and :meth:`map_columns` swap in, and the columns the executor
computes for γ and µ — and a second non-NULL representation is refused
there; every other transformation carries it, and the operators and
the receipt check read it instead of the cells.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.engine.values import representation
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

    __slots__ = ("name", "columns", "rows", "representations", "_index",
                 "_positions_cache")

    def __init__(self, name: str, columns: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> None:
        self.name = name
        self.columns = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise ExecutionError(f"duplicate columns in table {name}")
        self._index = {c: i for i, c in enumerate(self.columns)}
        self._positions_cache: dict[tuple[str, ...], tuple[int, ...]] = {}
        materialized = []
        width = len(self.columns)
        for row in rows:
            row = tuple(row)
            if len(row) != width:
                raise ExecutionError(
                    f"row width {len(row)} != column count {width} "
                    f"in table {name}"
                )
            materialized.append(row)
        self.rows = materialized
        cells = zip(*materialized) if materialized else [()] * width
        self.representations = tuple(map(representation, cells,
                                          self.columns))

    @classmethod
    def _from_trusted(cls, name: str, columns: tuple[str, ...],
                      rows: list[tuple[object, ...]],
                      representations: tuple[object, ...]) -> "Table":
        """Internal fast constructor: ``rows`` are already shaped tuples.

        Skips the per-row width validation of ``__init__`` and reads no
        cell: ``representations`` are carried from the operand tables —
        only for rows the engine itself produced from already valid
        tables.  Column uniqueness is still checked (joins/products of
        operands with clashing names must fail loudly, not shadow a
        column).
        """
        table = cls.__new__(cls)
        table.name = name
        table.columns = columns
        table.representations = representations
        table._index = {c: i for i, c in enumerate(columns)}
        if len(table._index) != len(columns):
            raise ExecutionError(f"duplicate columns in table {name}")
        table._positions_cache = {}
        table.rows = rows
        return table

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def column_position(self, column: str) -> int:
        """Index of ``column`` in each row tuple."""
        try:
            return self._index[column]
        except KeyError:
            raise ExecutionError(
                f"table {self.name} has no column {column!r}"
            ) from None

    def positions(self, columns: Sequence[str]) -> tuple[int, ...]:
        """Row-tuple indices of ``columns``, cached per column list.

        Operators resolve positions once per node through this method and
        then index rows directly, instead of re-deriving the map per row.
        """
        key = tuple(columns)
        cached = self._positions_cache.get(key)
        if cached is None:
            cached = tuple(self.column_position(c) for c in key)
            self._positions_cache[key] = cached
        return cached

    def representation(self, column: str) -> object | None:
        """The stated representation of ``column``."""
        return self.representations[self.column_position(column)]

    def column_values(self, column: str) -> list[object]:
        """All values of one column, in row order."""
        position = self.column_position(column)
        return [row[position] for row in self.rows]

    def iter_dicts(self) -> Iterator[dict[str, object]]:
        """Rows as dictionaries."""
        for row in self.rows:
            yield dict(zip(self.columns, row))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[object, ...]]:
        return iter(self.rows)

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def bulk_project(self, columns: Sequence[str], name: str | None = None,
                     dedupe: bool = True) -> "Table":
        """Batch projection: one position lookup, then a tight row loop.

        With ``dedupe`` (relational semantics) duplicate result rows are
        dropped, first occurrences kept in order, in one C-level
        ``dict.fromkeys``; rows with unhashable values are kept from the
        first offender onward.  Without it the row count is preserved.
        """
        positions = self.positions(columns)
        if not positions:
            projected: list[tuple[object, ...]] = [() for _ in self.rows]
        elif len(positions) == 1:
            p = positions[0]
            projected = [(row[p],) for row in self.rows]
        else:
            getter = itemgetter(*positions)
            projected = [getter(row) for row in self.rows]
        if dedupe:
            try:
                projected = list(dict.fromkeys(projected))
            except TypeError:  # an unhashable cell: the row loop below
                seen: set[tuple[object, ...]] = set()
                rows: list[tuple[object, ...]] = []
                hashable = True
                for row in projected:
                    if hashable:
                        try:
                            if row in seen:
                                continue
                            seen.add(row)
                        except TypeError:
                            hashable = False  # keep duplicates from here on
                    rows.append(row)
                projected = rows
        return Table._from_trusted(
            name or self.name, tuple(columns), projected,
            tuple(self.representations[p] for p in positions))

    def map_columns(self, transforms: Mapping[str, Callable[[object], object]],
                    ) -> "Table":
        """Apply several per-column transforms in one pass over the rows."""
        if not transforms:
            return self
        items = [(self.column_position(c), f) for c, f in transforms.items()]
        if len(items) == 1:
            position, transform = items[0]
            rows = [
                row[:position] + (transform(row[position]),)
                + row[position + 1:]
                for row in self.rows
            ]
        else:
            rows = []
            for row in self.rows:
                cells = list(row)
                for position, transform in items:
                    cells[position] = transform(cells[position])
                rows.append(tuple(cells))
        return self._born(self.name, rows, {
            position: [row[position] for row in rows]
            for position, _ in items})

    def replace_columns(self, replacements: Mapping[str, Sequence[object]],
                        name: str | None = None) -> "Table":
        """Swap whole columns for precomputed value lists, one zip pass.

        This is the columnar counterpart of :meth:`map_columns`: the
        caller transforms ``column_values`` in bulk (one Python-level
        dispatch per column — the Encrypt/Decrypt operators do this
        through the codec's column kernels) and this method stitches the
        new columns back into rows.  Each replacement list must match
        the row count.
        """
        if not replacements:
            return self if name is None else self.rename(name)
        count = len(self.rows)
        items = []
        for column, column_values in replacements.items():
            if len(column_values) != count:
                raise ExecutionError(
                    f"replacement for column {column!r} has "
                    f"{len(column_values)} values for {count} rows"
                )
            items.append((self.column_position(column), column_values))
        if len(items) == 1:
            position, column_values = items[0]
            rows = [
                row[:position] + (value,) + row[position + 1:]
                for row, value in zip(self.rows, column_values)
            ]
        else:
            columns_data = [list(c) for c in zip(*self.rows)] if count \
                else [[] for _ in self.columns]
            for position, column_values in items:
                columns_data[position] = list(column_values)
            rows = [tuple(r) for r in zip(*columns_data)] if count else []
        return self._born(name or self.name, rows, dict(items))

    def _born(self, name: str, rows: list[tuple[object, ...]],
              born: Mapping[int, Sequence[object]]) -> "Table":
        """``rows`` under this table's columns, where the columns at the
        positions of ``born`` are new: their representations are read
        from their cells (``born``), the others carried."""
        representations = list(self.representations)
        for position, cells in born.items():
            representations[position] = representation(
                cells, self.columns[position])
        return Table._from_trusted(name, self.columns, rows,
                                   tuple(representations))

    def rename(self, name: str) -> "Table":
        """The same content under a new name (rows list is copied)."""
        return Table._from_trusted(name, self.columns, list(self.rows),
                                   self.representations)

    def copy(self) -> "Table":
        """A same-content table with a private ``rows`` list.

        Rows are immutable tuples, so the shallow copy is enough to
        detach the caller from any cache the original lives in.
        """
        return self.rename(self.name)

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
                f"{len(self.rows)} rows)")
