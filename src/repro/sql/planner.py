"""Logical planner: parsed SQL → query-plan tree.

Applies the classical optimization criteria the paper assumes (§1):
projections are pushed down into the leaves so relations expose only the
attributes the query touches, single-relation selections are pushed below
the joins, and joins are built left-deep in FROM order.  The produced
:class:`~repro.core.plan.QueryPlan` is exactly what the authorization
pipeline (profiles → candidates → extension) consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cache import LRU
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
               cache: LRU | None = None) -> QueryPlan:
    """Build the query plan for ``query`` against ``schema``.

    ``cache`` (an :class:`~repro.core.cache.LRU`, keyed by the SQL text
    and the schema's identity) memoises whole plans for repeated queries: returning the *same* plan object —
    not merely an equal one — lets every identity-keyed layer downstream
    (assignment cache short-circuit, fragment reuse) hit as well.
    Entries store ``(plan, schema)``: pinning the schema keeps its
    ``id`` from being recycled onto a different schema while the entry
    lives.  Only usable with string queries; callers
    must treat cached plans as immutable.

    Examples
    --------
    >>> from repro.paper_example import build_schema
    >>> plan = plan_query(
    ...     "select T, avg(P) from Hosp join Ins on S=C "
    ...     "where D='stroke' group by T having avg(P)>100",
    ...     build_schema())
    >>> plan.root.label()
    'σ[P>100]'
    """
    if isinstance(query, str):
        if cache is not None:
            key = (query, id(schema))
            entry = cache.get(key)
            if entry is None:
                entry = (_Planner(parse_sql(query), schema).build(),
                         schema)
                cache.put(key, entry)
            return entry[0]
        query = parse_sql(query)
    return _Planner(query, schema).build()


@dataclass
class _ResolvedCondition:
    """A WHERE/ON condition with its attribute requirements resolved."""

    expr: ComparisonExpr
    relations: frozenset[str]
    predicates: tuple[Predicate, ...]


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
    def build(self) -> QueryPlan:
        where = [self.translate_condition(c) for c in self.query.where]
        join_conditions: list[tuple[int, _ResolvedCondition]] = []
        for index, join in enumerate(self.query.joins):
            for expr in join.condition:
                condition = self.translate_condition(expr)
                join_conditions.append((index, condition))

        aggregates = self._collect_aggregates()
        group_attrs = [self.resolve_column(c) for c in self.query.group_by]
        select_columns = [
            self.resolve_column(item.expression)
            for item in self.query.select
            if isinstance(item.expression, ColumnRef)
        ]

        needed = self._needed_attributes(
            where, join_conditions, aggregates, group_attrs, select_columns
        )

        # Attributes consumed above the join tree (outputs, grouping,
        # aggregation, and plain-column HAVING conditions).
        final_needed: set[str] = set(select_columns) | set(group_attrs)
        for aggregate in aggregates:
            if aggregate.attribute is not None:
                final_needed.add(aggregate.attribute)
        for expr in self.query.having:
            for operand in (expr.left, expr.right):
                if isinstance(operand, ColumnRef):
                    final_needed.add(self.resolve_column(operand))

        # Attributes each pending join/cross condition still needs, keyed
        # by the earliest stage at which the condition can be applied.
        def condition_attributes(condition: _ResolvedCondition) -> set[str]:
            out: set[str] = set()
            for predicate in condition.predicates:
                out |= predicate.attributes()
            return out

        # Leaves with pushed-down projections and local selections; the
        # paper assumes "projections are pushed down to avoid retrieving
        # data that are not of interest for the query", so attributes used
        # only in a leaf's local predicates are projected away afterwards.
        subtrees: dict[str, PlanNode] = {}
        upstream_needed: set[str] = set(final_needed)
        for _, condition in join_conditions:
            upstream_needed |= condition_attributes(condition)
        for condition in where:
            if len(condition.relations) > 1:
                upstream_needed |= condition_attributes(condition)
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

        # Left-deep join tree in FROM order, pruning dead attributes after
        # every join.
        joined = {self.tables[0]}
        current = subtrees[self.tables[0]]
        cross_where = [c for c in where if len(c.relations) > 1]
        pending = list(join_conditions)
        for index, join in enumerate(self.query.joins):
            name = join.table.name
            right = subtrees[name]
            joined.add(name)
            on_predicates = [
                p
                for join_index, condition in pending
                if join_index == index
                for p in condition.predicates
            ]
            pending = [(i, c) for i, c in pending if i != index]
            # Adopt cross-relation WHERE conditions once both sides exist.
            adopted = [c for c in cross_where if c.relations <= joined]
            cross_where = [c for c in cross_where if c.relations > joined]
            on_predicates.extend(p for c in adopted for p in c.predicates)
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
            still_needed = set(final_needed)
            for _, condition in pending:
                still_needed |= condition_attributes(condition)
            for condition in cross_where:
                still_needed |= condition_attributes(condition)
            visible = self._visible_attributes(current)
            keep_now = still_needed & visible
            if keep_now and keep_now < visible:
                current = Projection(current, keep_now)
        if cross_where:
            leftover = [p for c in cross_where for p in c.predicates]
            current = Selection(current, Conjunction(leftover))
            visible = self._visible_attributes(current)
            keep_now = final_needed & visible
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
        return QueryPlan(current)

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

    def _needed_attributes(self, where, join_conditions, aggregates,
                           group_attrs, select_columns) -> frozenset[str]:
        needed: set[str] = set(select_columns) | set(group_attrs)
        for aggregate in aggregates:
            if aggregate.attribute is not None:
                needed.add(aggregate.attribute)
        for condition in where:
            for predicate in condition.predicates:
                needed |= predicate.attributes()
        for _, condition in join_conditions:
            for predicate in condition.predicates:
                needed |= predicate.attributes()
        return frozenset(needed)

    def _visible_attributes(self, node: PlanNode) -> frozenset[str]:
        child_attrs = [self._visible_attributes(c) for c in node.children]
        return node.output_attributes(*child_attrs)
