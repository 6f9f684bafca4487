"""SQL tokenizer, parser, and planner."""

from datetime import date

import pytest

from repro.core.operators import (
    GroupBy,
    Join,
    Projection,
    Selection,
    BaseRelationNode,
)
from repro.core.predicates import (
    AttributeComparisonPredicate,
    AttributeValuePredicate,
    ComparisonOp,
)
from repro.exceptions import (
    SqlAnalysisError,
    SqlError,
    SqlSyntaxError,
    SqlUnsupportedError,
)
from repro.core.schema import Relation, Schema
from repro.paper_example import build_schema
from repro.sql import parse_sql, plan_query, tokenize
from repro.sql.planner import join_orders
from repro.sql.tokenizer import TokenType, unquote_string
from repro.tpch import all_queries, build_tpch_schema
from repro.tpch.schema import table_owners


class TestTokenizer:
    def test_keywords_and_identifiers(self):
        tokens = tokenize("SELECT T FROM Hosp")
        assert [t.type for t in tokens[:3]] == [
            TokenType.KEYWORD, TokenType.IDENTIFIER, TokenType.KEYWORD,
        ]
        assert tokens[0].value == "select"  # case-folded

    def test_numbers_strings_operators(self):
        tokens = tokenize("x >= 10.5 and y <> 'a''b'")
        values = [t.value for t in tokens[:-1]]
        assert "10.5" in values and ">=" in values and "<>" in values
        assert unquote_string("'a''b'") == "a'b"

    def test_comments_and_newlines(self):
        tokens = tokenize("select a -- note\nfrom R")
        assert [t.value for t in tokens[:-1]] == [
            "select", "a", "from", "R",
        ]
        assert tokens[2].line == 2

    def test_bad_character_reports_position(self):
        with pytest.raises(SqlSyntaxError) as error:
            tokenize("select @")
        assert error.value.column == 8

    def test_bang_equals_normalised(self):
        tokens = tokenize("a != 1")
        assert tokens[1].value == "<>"


class TestParser:
    def test_running_example_query(self):
        query = parse_sql(
            "select T, avg(P) from Hosp join Ins on S=C "
            "where D='stroke' group by T having avg(P)>100")
        assert len(query.select) == 2
        assert query.from_table.name == "Hosp"
        assert query.joins[0].table.name == "Ins"
        assert len(query.where) == 1 and len(query.having) == 1

    def test_in_between_like_date(self):
        query = parse_sql(
            "select a from R where a in (1, 2) and b between 3 and 4 "
            "and c like 'x%' and d >= date '1994-01-01'")
        ops = [c.op for c in query.where]
        assert ComparisonOp.IN in ops and ComparisonOp.LIKE in ops
        literal = query.where[-1].right
        assert literal.value == date(1994, 1, 1)

    def test_count_star_gets_default_alias(self):
        query = parse_sql("select count(*) from R group by a")
        call = query.select[0].expression
        assert call.alias == "count"

    @pytest.mark.parametrize("aggregate", ["count", "sum", "avg"])
    def test_distinct_aggregate_is_refused_not_read_as_plain(
            self, aggregate):
        sql = f"select T, {aggregate}(distinct P) from Hosp join Ins " \
            "on S=C group by T"
        with pytest.raises(SqlUnsupportedError,
                           match=rf"{aggregate}\(distinct …\)") as error:
            parse_sql(sql)
        assert isinstance(error.value, SqlError)
        assert f"column {sql.index('distinct') + 1})" in str(error.value)
        with pytest.raises(SqlUnsupportedError):
            plan_query(sql, build_schema())
        # Without DISTINCT the same call is an ordinary aggregate.
        call = parse_sql(sql.replace("distinct ", "")).select[1].expression
        assert call.argument.name == "P"

    def test_select_distinct_is_refused_not_read_as_plain(self):
        """π keeps every row, and no plan operator drops duplicates."""
        sql = "select distinct T from Hosp join Ins on S=C"
        with pytest.raises(SqlUnsupportedError,
                           match=r"select distinct is not supported") \
                as error:
            parse_sql(sql)
        assert isinstance(error.value, SqlError)
        assert "line 1, column 8)" in str(error.value)
        with pytest.raises(SqlUnsupportedError):
            plan_query(sql, build_schema())
        assert len(parse_sql(sql.replace("distinct ", "")).select) == 1

    def test_syntax_errors(self):
        for bad in ("select", "select a from", "select a from R where",
                    "select a,, b from R", "select a from R extra"):
            with pytest.raises(SqlSyntaxError):
                parse_sql(bad)

    def test_qualified_columns(self):
        query = parse_sql("select Hosp.T from Hosp")
        assert query.select[0].expression.table == "Hosp"

    def test_str_roundtrips_informally(self):
        query = parse_sql("select T from Hosp where D = 'x'")
        assert "select T" in str(query) and "where" in str(query)


class TestPlanner:
    def test_running_example_plan_shape(self):
        plan = plan_query(
            "select T, avg(P) from Hosp join Ins on S=C "
            "where D='stroke' group by T having avg(P)>100",
            build_schema())
        labels = [n.label() for n in plan.postorder()]
        # The paper's Figure 1(a) operators, in order (the planner may
        # interleave pruning projections that drop consumed attributes).
        core = [l for l in labels if not l.startswith("π[") or "Hosp" in l]
        assert core == [
            "π[S,D,T] Hosp(S,D,T)",
            "σ[D='stroke']",
            "Ins(C,P)",
            "⋈[S=C]",
            "γ[T; avg(P)]",
            "σ[P>100]",
        ]
        # D is consumed by the selection and pruned before the join.
        join = next(n for n in plan.postorder() if isinstance(n, Join))
        assert "D" not in plan.profiles()[join].visible

    def test_projection_pushdown_into_leaves(self):
        plan = plan_query("select T from Hosp where D='x'", build_schema())
        (leaf,) = plan.leaves()
        assert leaf.projection == frozenset({"T", "D"})

    def test_selection_pushed_below_join(self):
        plan = plan_query(
            "select T, P from Hosp join Ins on S=C where D='x'",
            build_schema())
        join = plan.root if isinstance(plan.root, Join) else \
            plan.root.left
        assert isinstance(join, Join)
        assert isinstance(join.left, (Selection, Projection))

    def test_where_join_condition_adopted(self):
        plan = plan_query(
            "select T, P from Hosp, Ins where S=C and D='x'",
            build_schema())
        joins = [n for n in plan.postorder() if isinstance(n, Join)]
        assert len(joins) == 1  # comma join upgraded via WHERE equality

    def test_between_expands_to_two_predicates(self):
        plan = plan_query(
            "select T from Hosp where B between 1960 and 1980",
            build_schema())
        selections = [n for n in plan.postorder()
                      if isinstance(n, Selection)]
        basics = [b for s in selections
                  for b in s.predicate.basic_conditions()]
        ops = sorted(str(b.op) for b in basics
                     if isinstance(b, AttributeValuePredicate))
        assert ops == ["<=", ">="]

    def test_having_on_aggregate_alias(self):
        plan = plan_query(
            "select T, sum(P) as total from Hosp join Ins on S=C "
            "group by T having sum(P) > 10", build_schema())
        having = plan.root
        assert isinstance(having, Selection)
        (basic,) = having.predicate.basic_conditions()
        assert basic.attribute == "total"

    def test_having_without_matching_aggregate_rejected(self):
        with pytest.raises(SqlAnalysisError):
            plan_query(
                "select T, sum(P) from Hosp join Ins on S=C "
                "group by T having min(P) > 10", build_schema())

    def test_unknown_relation_and_column(self):
        with pytest.raises(SqlAnalysisError):
            plan_query("select T from Nope", build_schema())
        with pytest.raises(SqlAnalysisError):
            plan_query("select zzz from Hosp", build_schema())

    def test_self_join_rejected(self):
        with pytest.raises(SqlAnalysisError):
            plan_query("select T from Hosp join Hosp on S=S",
                       build_schema())

    def test_group_by_without_aggregate_rejected(self):
        with pytest.raises(SqlAnalysisError):
            plan_query("select T from Hosp group by T", build_schema())

    def test_intra_relation_comparison_stays_local(self):
        plan = plan_query(
            "select l_orderkey from lineitem "
            "where l_commitdate < l_receiptdate",
            __import__("repro.tpch.schema",
                       fromlist=["build_tpch_schema"]).build_tpch_schema())
        selections = [n for n in plan.postorder()
                      if isinstance(n, Selection)]
        assert selections
        (basic,) = selections[0].predicate.basic_conditions()
        assert isinstance(basic, AttributeComparisonPredicate)

    def test_attribute_value_flipped_literal(self):
        plan = plan_query("select T from Hosp where 1980 < B",
                          build_schema())
        selections = [n for n in plan.postorder()
                      if isinstance(n, Selection)]
        (basic,) = selections[0].predicate.basic_conditions()
        assert basic.attribute == "B" and basic.op is ComparisonOp.GT

    def test_final_projection_added_when_narrower(self):
        plan = plan_query("select T from Hosp where B > 1", build_schema())
        assert isinstance(plan.root, Projection)

    def test_multi_aggregate_select(self):
        plan = plan_query(
            "select T, sum(P) as s, avg(P) as a, count(*) as n "
            "from Hosp join Ins on S=C group by T", build_schema())
        group = plan.root
        assert isinstance(group, GroupBy)
        assert {a.output_name for a in group.aggregates} == {"s", "a", "n"}


def conjuncts_as_written(sql):
    """Every WHERE and ON conjunct of ``sql``, spaces dropped, BETWEEN as
    its two range conditions."""
    query = parse_sql(sql)
    written = []
    for condition in query.where + [c for join in query.joins
                                    for c in join.condition]:
        right = condition.right
        if isinstance(right, tuple) and right[:1] == ("__between__",):
            column = condition.left
            written += [f"{column}>={right[1]}", f"{column}<={right[2]}"]
        else:
            written.append(str(condition))
    return [text.replace(" ", "") for text in written]


@pytest.mark.parametrize("template", [
    pytest.param(q, id=f"Q{q.number}") for q in all_queries()
    if q.sql is not None])
def test_every_where_and_on_conjunct_lands_in_exactly_one_plan_node(
        template):
    """The planner places each conjunct once, in every join order it is
    offered: none dropped (Q5 lost ``c_nationkey = s_nationkey`` while
    it kept a cross-relation condition pending only until one of its
    relations joined), none applied twice."""
    schema = build_tpch_schema(0.002)
    for order in join_orders(template.sql, schema, table_owners()):
        plan = plan_query(template.sql, schema, order)
        placed = [{str(basic).replace(" ", "")
                   for basic in condition.basic_conditions()}
                  for node in plan.postorder()
                  for condition in [getattr(node, "predicate", None)
                                    or getattr(node, "condition", None)]
                  if condition is not None]
        for conjunct in conjuncts_as_written(template.sql):
            assert sum(conjunct in node for node in placed) == 1, \
                (order, conjunct)


def _chain_schema():
    """R1 -- R2 -- R3 -- R4 on shared keys; owners A, B, B, A."""
    schema = Schema()
    for name, attributes, rows in (
            ("R1", ["a1", "k12"], 50), ("R2", ["k21", "k23"], 90),
            ("R3", ["k32", "k34"], 10), ("R4", ["k43", "a4"], 90)):
        schema.add(Relation(name, attributes, cardinality=rows))
    return schema, {"R1": "A", "R2": "B", "R3": "B", "R4": "A"}


CHAIN = ("select a1, a4 from R1 join R2 on k12 = k21 "
         "join R3 on k23 = k32 join R4 on k34 = k43")


class TestJoinOrder:
    def test_default_is_from_order(self):
        schema, _ = _chain_schema()
        plan = plan_query(CHAIN, schema)
        assert [leaf.relation.name for leaf in plan.leaves()] == \
            ["R1", "R2", "R3", "R4"]

    def test_owner_first_starts_at_the_largest_and_keeps_its_owner(self):
        """R2 and R4 tie on rows, so R2 (first in FROM) starts; R3 is
        connected and B's; then nothing of B's is left, so R1 (first in
        FROM order among the connected) precedes R4."""
        schema, owners = _chain_schema()
        assert join_orders(CHAIN, schema, owners) == (
            ("R1", "R2", "R3", "R4"), ("R2", "R3", "R1", "R4"))

    def test_a_relation_of_the_start_owner_joins_as_soon_as_connected(
            self):
        schema, owners = _chain_schema()
        owners = {**owners, "R1": "B", "R3": "A", "R4": "B"}
        # R2 starts (B); R1 is B's and connected; R3 is not B's but the
        # only connected one; then R4, B's again.
        assert join_orders(CHAIN, schema, owners)[1] == \
            ("R2", "R1", "R3", "R4")

    def test_one_order_when_owner_first_is_from_order(self):
        schema, _ = _chain_schema()
        owners = {"R1": "A", "R2": "A", "R3": "A", "R4": "A"}
        sql = CHAIN.replace("select a1, a4 from R1 join R2 on k12 = k21",
                            "select a1, a4 from R2 join R1 on k12 = k21")
        assert join_orders(sql, schema, owners) == (
            ("R2", "R1", "R3", "R4"),)

    def test_a_condition_joins_once_every_relation_it_names_has(self):
        schema = build_tpch_schema(0.002)
        q5 = all_queries()[4].sql
        _, owner_first = join_orders(q5, schema, table_owners())
        assert owner_first == ("lineitem", "orders", "customer",
                               "supplier", "nation", "region")
        plan = plan_query(q5, schema, owner_first)
        joins = [node for node in plan.postorder()
                 if isinstance(node, Join)]
        # The fourth leaf (supplier) brings both of its conditions.
        assert {str(p).replace(" ", "")
                for p in joins[2].condition.basic_conditions()} == \
            {"l_suppkey=s_suppkey", "c_nationkey=s_nationkey"}

    def test_order_must_name_each_from_relation_once(self):
        schema, _ = _chain_schema()
        for order in (("R1", "R2", "R3"), ("R1", "R2", "R3", "R3"),
                      ("R1", "R2", "R3", "R9")):
            with pytest.raises(SqlAnalysisError):
                plan_query(CHAIN, schema, order)

    def test_the_select_order_is_data_on_the_plan(self):
        schema, owners = _chain_schema()
        for order in join_orders(CHAIN, schema, owners):
            assert plan_query(CHAIN, schema, order).columns == \
                ("a1", "a4")
