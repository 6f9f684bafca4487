"""Abstract syntax tree for the supported SQL subset."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.operators import AggregateFunction
from repro.core.predicates import ComparisonOp


@dataclass(frozen=True)
class ColumnRef:
    """A column reference, optionally qualified (``Hosp.S``)."""

    name: str
    table: str | None = None

    def __str__(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Literal:
    """A literal constant (number, string, or date)."""

    value: object

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'"
        return str(self.value)


@dataclass(frozen=True)
class AggregateCall:
    """``f(column)`` or ``count(*)``, optionally aliased."""

    function: AggregateFunction
    argument: ColumnRef | None
    alias: str | None = None

    def __str__(self) -> str:
        arg = str(self.argument) if self.argument is not None else "*"
        text = f"{self.function}({arg})"
        return f"{text} as {self.alias}" if self.alias else text


@dataclass(frozen=True)
class SelectItem:
    """One select-list entry: a column or an aggregate."""

    expression: ColumnRef | AggregateCall



@dataclass(frozen=True)
class ComparisonExpr:
    """A basic condition ``left op right``."""

    left: ColumnRef | Literal
    op: ComparisonOp
    right: ColumnRef | Literal | tuple[Literal, ...]

    def __str__(self) -> str:
        if isinstance(self.right, tuple):
            values = ", ".join(str(v) for v in self.right)
            return f"{self.left} in ({values})"
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class TableRef:
    """A relation in the FROM clause."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class JoinClause:
    """``JOIN table ON condition``."""

    table: TableRef
    condition: tuple[ComparisonExpr, ...]


@dataclass
class SelectQuery:
    """A parsed ``select-from-where-group by-having`` query."""

    select: list[SelectItem] = field(default_factory=list)
    from_table: TableRef | None = None
    joins: list[JoinClause] = field(default_factory=list)
    where: list[ComparisonExpr] = field(default_factory=list)
    group_by: list[ColumnRef] = field(default_factory=list)
    having: list[ComparisonExpr] = field(default_factory=list)

    def __str__(self) -> str:
        parts = ["select "
                 + ", ".join(str(i.expression) for i in self.select)]
        if self.from_table is not None:
            parts.append(f"from {self.from_table}")
        for join in self.joins:
            condition = " and ".join(str(c) for c in join.condition)
            parts.append(f"join {join.table} on {condition}")
        if self.where:
            parts.append("where " + " and ".join(str(c) for c in self.where))
        if self.group_by:
            parts.append("group by "
                         + ", ".join(str(c) for c in self.group_by))
        if self.having:
            parts.append("having "
                         + " and ".join(str(c) for c in self.having))
        return " ".join(parts)
