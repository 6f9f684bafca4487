"""Logical planner: parsed SQL → query-plan tree.

Applies the classical optimization criteria the paper assumes (§1):
projections are pushed down into the leaves so relations expose only the
attributes the query touches, single-relation selections are pushed below
the joins, and joins are built left-deep in a given relation order — FROM
order unless the caller names another.  The produced
:class:`~repro.core.plan.QueryPlan` is exactly what the authorization
pipeline (profiles → candidates → extension) consumes; it carries the
SELECT order of the result columns as data (``QueryPlan.columns``), not
as a plan node, so the join order never changes what the user receives
or what §7 prices above the joins.

:func:`join_orders` offers the orders worth pricing: FROM order and, when
it differs, the *owner-first* order, which grows the tree from the
largest relation through the relations its owner also holds, so that
authority can join them in plaintext before anything crosses to another
party.  Choosing between them is the caller's (the service prices each
with ``assign``); :func:`plan_query` alone never reorders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.operators import (
    Aggregate,
    BaseRelationNode,
    CartesianProduct,
    GroupBy,
    Join,
    PlanNode,
    Projection,
    Selection,
)
from repro.core.plan import QueryPlan
from repro.core.predicates import (
    AttributeComparisonPredicate,
    AttributeValuePredicate,
    ComparisonOp,
    Conjunction,
    Predicate,
)
from repro.core.profile import RelationProfile
from repro.core.schema import Schema
from repro.exceptions import SqlAnalysisError
from repro.sql.ast import (
    AggregateCall,
    ColumnRef,
    ComparisonExpr,
    Literal,
    SelectQuery,
)
from repro.sql.parser import parse_sql


def plan_query(query: SelectQuery | str, schema: Schema,
               order: Sequence[str] | None = None) -> QueryPlan:
    """Build the query plan for ``query`` against ``schema``.

    ``order`` names every FROM relation once: the left-deep join tree
    takes them in that order (FROM order by default), and each ON or
    cross-relation WHERE condition joins the tree as soon as every
    relation it names has joined.  Callers must treat plans as
    immutable: every identity-keyed layer downstream (assignment cache,
    fragment reuse) keys on the plan object.

    Examples
    --------
    >>> from repro.paper_example import build_schema
    >>> plan = plan_query(
    ...     "select T, avg(P) from Hosp join Ins on S=C "
    ...     "where D='stroke' group by T having avg(P)>100",
    ...     build_schema())
    >>> plan.root.label(), plan.columns
    ('σ[P>100]', ('T', 'P'))
    """
    if isinstance(query, str):
        query = parse_sql(query)
    return _Planner(query, schema).build(order)


def join_orders(query: SelectQuery | str, schema: Schema,
                owners: Mapping[str, str]) -> tuple[tuple[str, ...], ...]:
    """FROM order, then the owner-first order if it differs.

    Owner-first starts at the FROM relation with the largest
    ``Relation.cardinality`` (the first in FROM order on a tie).  Each
    next relation is the first connected one, in FROM order, that
    ``owners`` gives the start's owner, or else the first connected
    one.  A relation is *connected* once some ON or WHERE condition
    links it to the relations already taken; when none is, the next in
    FROM order follows (a cartesian product).
    """
    if isinstance(query, str):
        query = parse_sql(query)
    planner = _Planner(query, schema)
    first = tuple(planner.tables)
    other = planner.owner_first(owners)
    return (first,) if other == first else (first, other)


@dataclass
class _ResolvedCondition:
    """A WHERE/ON condition with its attribute requirements resolved."""

    expr: ComparisonExpr
    relations: frozenset[str]
    predicates: tuple[Predicate, ...]


def _attributes_of(conditions: list[_ResolvedCondition]) -> set[str]:
    """Every attribute the predicates of ``conditions`` name."""
    return {attribute for condition in conditions
            for predicate in condition.predicates
            for attribute in predicate.attributes()}


class _Planner:
    def __init__(self, query: SelectQuery, schema: Schema) -> None:
        self.query = query
        self.schema = schema
        if query.from_table is None:
            raise SqlAnalysisError("query lacks a FROM clause")
        self.tables = [query.from_table.name] + [
            j.table.name for j in query.joins
        ]
        for name in self.tables:
            if name not in schema:
                raise SqlAnalysisError(f"unknown relation {name!r}")
        if len(set(self.tables)) != len(self.tables):
            raise SqlAnalysisError(
                "self-joins are not supported (attribute names are global)"
            )
        self.owners = schema.attribute_owner_map()
        #: Profile of each node built so far: its schema is ``visible``.
        self._profiles: dict[PlanNode, RelationProfile] = {}

    # ------------------------------------------------------------------
    # Resolution helpers
    # ------------------------------------------------------------------
    def resolve_column(self, column: ColumnRef) -> str:
        """Resolve a column reference to its global attribute name."""
        owner = self.owners.get(column.name)
        if owner is None or owner not in self.tables:
            raise SqlAnalysisError(
                f"column {column} does not belong to any queried relation"
            )
        if column.table is not None and column.table != owner:
            raise SqlAnalysisError(
                f"column {column} actually belongs to {owner}"
            )
        return column.name

    def relation_of(self, attribute: str) -> str:
        return self.owners[attribute]

    # ------------------------------------------------------------------
    # Condition translation
    # ------------------------------------------------------------------
    def translate_condition(self, expr: ComparisonExpr,
                            ) -> _ResolvedCondition:
        left, right = expr.left, expr.right
        if isinstance(left, AggregateCall) \
                or isinstance(right, AggregateCall):
            raise SqlAnalysisError(
                "aggregates may only appear in HAVING conditions"
            )
        if isinstance(left, Literal) and isinstance(right, ColumnRef):
            left, right = right, left
            flipped = {ComparisonOp.LT: ComparisonOp.GT,
                       ComparisonOp.LE: ComparisonOp.GE,
                       ComparisonOp.GT: ComparisonOp.LT,
                       ComparisonOp.GE: ComparisonOp.LE}
            expr = ComparisonExpr(left, flipped.get(expr.op, expr.op), right)
        if not isinstance(left, ColumnRef):
            raise SqlAnalysisError(f"unsupported condition {expr}")

        attribute = self.resolve_column(left)
        if isinstance(right, ColumnRef):
            other = self.resolve_column(right)
            predicate: Predicate = AttributeComparisonPredicate(
                attribute, expr.op, other
            )
            return _ResolvedCondition(
                expr=expr,
                relations=frozenset({self.relation_of(attribute),
                                     self.relation_of(other)}),
                predicates=(predicate,),
            )
        if isinstance(right, tuple) and right and right[0] == "__between__":
            low, high = right[1], right[2]
            return _ResolvedCondition(
                expr=expr,
                relations=frozenset({self.relation_of(attribute)}),
                predicates=(
                    AttributeValuePredicate(attribute, ComparisonOp.GE,
                                            low.value),
                    AttributeValuePredicate(attribute, ComparisonOp.LE,
                                            high.value),
                ),
            )
        if isinstance(right, tuple):
            values = tuple(v.value for v in right)
            predicate = AttributeValuePredicate(attribute, ComparisonOp.IN,
                                                values)
        else:
            predicate = AttributeValuePredicate(attribute, expr.op,
                                                right.value)
        return _ResolvedCondition(
            expr=expr,
            relations=frozenset({self.relation_of(attribute)}),
            predicates=(predicate,),
        )

    # ------------------------------------------------------------------
    # Plan construction
    # ------------------------------------------------------------------
    def conditions(self) -> tuple[list[_ResolvedCondition],
                                  list[_ResolvedCondition]]:
        """The WHERE conditions, and the ON conditions in join order."""
        where = [self.translate_condition(c) for c in self.query.where]
        on = [self.translate_condition(expr)
              for join in self.query.joins for expr in join.condition]
        return where, on

    def owner_first(self, owners: Mapping[str, str]) -> tuple[str, ...]:
        """The owner-first relation order (:func:`join_orders`)."""
        where, on = self.conditions()
        links = [c.relations for c in on + where if len(c.relations) > 1]
        start = max(self.tables,
                    key=lambda n: self.schema.relation(n).cardinality)
        order, rest = [start], [n for n in self.tables if n != start]
        while rest:
            taken = set(order)
            linked = [n for n in rest if any(
                n in r and r - {n} <= taken for r in links)]
            same = [n for n in linked
                    if owners.get(n) == owners.get(start)]
            order.append((same or linked or rest)[0])
            rest.remove(order[-1])
        return tuple(order)

    def build(self, order: Sequence[str] | None = None) -> QueryPlan:
        order = tuple(order or self.tables)
        if sorted(order) != sorted(self.tables):
            raise SqlAnalysisError(
                f"join order {list(order)} is not a permutation of the "
                f"FROM relations {self.tables}")
        where, on = self.conditions()
        aggregates = self._collect_aggregates()
        group_attrs = [self.resolve_column(c) for c in self.query.group_by]
        select_columns = [
            self.resolve_column(item.expression)
            for item in self.query.select
            if isinstance(item.expression, ColumnRef)
        ]
        # Conditions that join the tree once every relation they name
        # has: the ON conditions in source order, then the
        # cross-relation WHERE conditions.
        pending = on + [c for c in where if len(c.relations) > 1]

        # Attributes the query reads: its outputs, grouping and
        # aggregated attributes, and those its WHERE / ON conditions name.
        outputs = set(select_columns) | set(group_attrs) | {
            a.attribute for a in aggregates if a.attribute is not None}
        needed = outputs | _attributes_of(where + on)
        # Attributes consumed above the join tree (outputs, grouping,
        # aggregation, and plain-column HAVING conditions).
        final_needed = outputs | {
            self.resolve_column(operand) for expr in self.query.having
            for operand in (expr.left, expr.right)
            if isinstance(operand, ColumnRef)}

        # Leaves with pushed-down projections and local selections; the
        # paper assumes "projections are pushed down to avoid retrieving
        # data that are not of interest for the query", so attributes used
        # only in a leaf's local predicates are projected away afterwards.
        subtrees: dict[str, PlanNode] = {}
        upstream_needed = final_needed | _attributes_of(pending)
        for name in self.tables:
            relation = self.schema.relation(name)
            keep = needed & relation.attribute_set
            if not keep:
                keep = frozenset([relation.attribute_names[0]])
            node: PlanNode = BaseRelationNode(relation, keep)
            local = [c for c in where
                     if c.relations == frozenset({name})]
            predicates = [p for c in local for p in c.predicates]
            if predicates:
                node = Selection(node, Conjunction(predicates))
                survivors = upstream_needed & relation.attribute_set
                if survivors and survivors < keep:
                    node = Projection(node, survivors)
            subtrees[name] = node

        # Left-deep join tree in ``order``, pruning dead attributes after
        # every join.
        joined = {order[0]}
        current = subtrees[order[0]]
        for name in order[1:]:
            right = subtrees[name]
            joined.add(name)
            adopted = [c for c in pending if c.relations <= joined]
            pending = [c for c in pending if not c.relations <= joined]
            on_predicates = [p for c in adopted for p in c.predicates]
            comparison_predicates = [
                p for p in on_predicates
                if isinstance(p, AttributeComparisonPredicate)
            ]
            residual = [p for p in on_predicates
                        if not isinstance(p, AttributeComparisonPredicate)]
            # Cosmetic canonicalization only: equality conjuncts first
            # (stable, in source order) so labels and dispatched SQL read
            # "hash keys, then residuals".  Execution does not depend on
            # this — Join.partition_condition classifies conjuncts
            # wherever they appear.
            comparison_predicates.sort(
                key=lambda p: p.op is not ComparisonOp.EQ
            )
            if comparison_predicates:
                current = Join(current, right,
                               Conjunction(comparison_predicates))
            else:
                current = CartesianProduct(current, right)
            if residual:
                current = Selection(current, Conjunction(residual))
            still_needed = final_needed | _attributes_of(pending)
            visible = self._visible_attributes(current)
            keep_now = still_needed & visible
            if keep_now and keep_now < visible:
                current = Projection(current, keep_now)

        # Grouping and aggregation.
        if aggregates:
            current = GroupBy(current, group_attrs, aggregates)
        elif group_attrs:
            raise SqlAnalysisError(
                "GROUP BY without an aggregate in the select list"
            )

        # HAVING: conditions over aggregate outputs.
        having = [self._translate_having(c, aggregates)
                  for c in self.query.having]
        if having:
            current = Selection(current, Conjunction(having))

        # Final projection when the select list is narrower than the
        # current schema (pure-projection queries).
        if not aggregates and select_columns:
            current_attrs = self._visible_attributes(current)
            if frozenset(select_columns) < current_attrs:
                current = Projection(current, select_columns)
        # The result's columns: SELECT order, then any other column the
        # root keeps (a grouping attribute not selected) by name.
        selected = list(dict.fromkeys(
            self.resolve_column(item.expression)
            if isinstance(item.expression, ColumnRef)
            else self._match_aggregate(item.expression, aggregates)
            for item in self.query.select))
        rest = sorted(self._visible_attributes(current) - set(selected))
        return QueryPlan(current, columns=tuple(selected + rest))

    def _collect_aggregates(self) -> list[Aggregate]:
        aggregates: list[Aggregate] = []
        for item in self.query.select:
            if not isinstance(item.expression, AggregateCall):
                continue
            call = item.expression
            argument = (self.resolve_column(call.argument)
                        if call.argument is not None else None)
            aggregates.append(Aggregate(
                function=call.function,
                attribute=argument,
                alias=call.alias,
            ))
        return aggregates

    def _translate_having(self, expr: ComparisonExpr,
                          aggregates: list[Aggregate]) -> Predicate:
        left, right = expr.left, expr.right
        if isinstance(right, AggregateCall) and not isinstance(
                left, AggregateCall):
            left, right = right, left
        if not isinstance(left, AggregateCall):
            # Plain column condition in HAVING — treat like a selection.
            resolved = self.translate_condition(expr)
            if len(resolved.predicates) != 1:
                return Conjunction(resolved.predicates)
            return resolved.predicates[0]
        output = self._match_aggregate(left, aggregates)
        if isinstance(right, (ColumnRef, AggregateCall)):
            other = (self._match_aggregate(right, aggregates)
                     if isinstance(right, AggregateCall)
                     else self.resolve_column(right))
            return AttributeComparisonPredicate(output, expr.op, other)
        if isinstance(right, tuple):
            raise SqlAnalysisError("IN/BETWEEN on aggregates not supported")
        return AttributeValuePredicate(output, expr.op, right.value)

    def _match_aggregate(self, call: AggregateCall,
                         aggregates: list[Aggregate]) -> str:
        argument = (self.resolve_column(call.argument)
                    if call.argument is not None else None)
        for aggregate in aggregates:
            if aggregate.function is call.function \
                    and aggregate.attribute == argument:
                return aggregate.output_name
        raise SqlAnalysisError(
            f"HAVING references {call}, which is not in the select list"
        )

    def _visible_attributes(self, node: PlanNode) -> frozenset[str]:
        return self._profile(node).visible

    def _profile(self, node: PlanNode) -> RelationProfile:
        profile = self._profiles.get(node)
        if profile is None:
            profile = node.output_profile(
                *(self._profile(child) for child in node.children))
            self._profiles[node] = profile
        return profile
