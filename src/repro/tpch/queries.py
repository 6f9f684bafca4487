"""The 22 TPC-H queries as query plans (§7's workload).

Each query is reproduced within the paper's query class
(``select from where group by having`` with conjunctive conditions and
joins).  TPC-H constructs outside that class are *approximated* and every
approximation is recorded on the query object:

* correlated/EXISTS subqueries become joins or constant thresholds;
* arithmetic select expressions become a representative aggregate, or a
  udf (µ) when the computation is essential to the query (Q8, Q9, Q14,
  Q22) — which also exercises the model's udf rule;
* OR-blocks (Q19) keep one representative conjunctive block;
* self-joins on ``nation`` (Q7) become an IN predicate (the model's
  global attribute names preclude self-joins).

The *plan shapes* — deep joins over the two authorities' tables,
selective predicates, group-bys with additive aggregates — are what the
§7 experiments exercise, and those are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.operators import (
    Aggregate,
    AggregateFunction,
    BaseRelationNode,
    GroupBy,
    Join,
    Projection,
    Selection,
    Udf,
)
from repro.core.plan import QueryPlan
from repro.core.predicates import (
    AttributeValuePredicate,
    ComparisonOp,
    equals,
)
from repro.core.schema import Schema
from repro.exceptions import PlanError
from repro.sql.planner import plan_query

Builder = Callable[[Schema], QueryPlan]


@dataclass(frozen=True)
class TpchQuery:
    """One TPC-H query reproduction."""

    number: int
    name: str
    description: str
    sql: str | None
    approximations: tuple[str, ...] = ()
    builder: Builder | None = field(default=None, compare=False)

    def plan(self, schema: Schema) -> QueryPlan:
        """Build the query plan against ``schema``."""
        if self.builder is not None:
            return self.builder(schema)
        assert self.sql is not None
        return plan_query(self.sql, schema)

    def __str__(self) -> str:
        return f"Q{self.number} ({self.name})"


# ---------------------------------------------------------------------------
# Direct builders for the udf queries and Q15's join-above-aggregate.
# ---------------------------------------------------------------------------


def _q8_builder(schema: Schema) -> QueryPlan:
    core = plan_query(
        "select o_orderdate, l_extendedprice"
        " from part join lineitem on p_partkey = l_partkey"
        " join supplier on l_suppkey = s_suppkey"
        " join orders on l_orderkey = o_orderkey"
        " join customer on o_custkey = c_custkey"
        " join nation on c_nationkey = n_nationkey"
        " join region on n_regionkey = r_regionkey"
        " where r_name = 'AMERICA'"
        " and p_type = 'ECONOMY ANODIZED STEEL'"
        " and o_orderdate between date '1995-01-01' and date '1996-12-31'",
        schema,
    )
    year = Udf(core.root, ["o_orderdate"], "o_orderdate",
               encrypted_capable=False, name="extract_year")
    grouped = GroupBy(year, ["o_orderdate"], [
        Aggregate(AggregateFunction.SUM, "l_extendedprice", alias="volume"),
    ])
    return QueryPlan(grouped)


def _q9_builder(schema: Schema) -> QueryPlan:
    core = plan_query(
        "select n_name, l_extendedprice, l_discount, ps_supplycost,"
        " l_quantity"
        " from part join partsupp on p_partkey = ps_partkey"
        " join lineitem on ps_suppkey = l_suppkey and ps_partkey = l_partkey"
        " join supplier on l_suppkey = s_suppkey"
        " join orders on l_orderkey = o_orderkey"
        " join nation on s_nationkey = n_nationkey"
        " where p_name like '%green%'",
        schema,
    )
    amount = Udf(
        core.root,
        ["l_extendedprice", "l_discount", "ps_supplycost", "l_quantity"],
        "l_extendedprice",
        encrypted_capable=False,
        name="profit_amount",
    )
    grouped = GroupBy(amount, ["n_name"], [
        Aggregate(AggregateFunction.SUM, "l_extendedprice",
                  alias="sum_profit"),
    ])
    return QueryPlan(grouped)


def _q14_builder(schema: Schema) -> QueryPlan:
    core = plan_query(
        "select p_type, l_extendedprice"
        " from lineitem join part on l_partkey = p_partkey"
        " where l_shipdate >= date '1995-09-01'"
        " and l_shipdate < date '1995-10-01'",
        schema,
    )
    promo = Udf(core.root, ["p_type", "l_extendedprice"],
                "l_extendedprice", encrypted_capable=False,
                name="promo_revenue")
    grouped = GroupBy(promo, [], [
        Aggregate(AggregateFunction.SUM, "l_extendedprice",
                  alias="promo_revenue"),
    ])
    return QueryPlan(grouped)


def _q15_builder(schema: Schema) -> QueryPlan:
    revenue = plan_query(
        "select l_suppkey, sum(l_extendedprice) as total_revenue"
        " from lineitem"
        " where l_shipdate >= date '1996-01-01'"
        " and l_shipdate < date '1996-04-01'"
        " group by l_suppkey"
        " having sum(l_extendedprice) > 100000",
        schema,
    )
    supplier = BaseRelationNode(
        schema.relation("supplier"),
        ["s_suppkey", "s_name", "s_phone"],
    )
    joined = Join(revenue.root, supplier, equals("l_suppkey", "s_suppkey"))
    projected = Projection(
        joined, ["s_suppkey", "s_name", "s_phone", "total_revenue"]
    )
    return QueryPlan(projected)


def _q22_builder(schema: Schema) -> QueryPlan:
    customer = BaseRelationNode(
        schema.relation("customer"), ["c_phone", "c_acctbal"]
    )
    positive = Selection(
        customer,
        AttributeValuePredicate("c_acctbal", ComparisonOp.GT, 0.0),
    )
    code = Udf(positive, ["c_phone"], "c_phone", encrypted_capable=False,
               name="country_code")
    grouped = GroupBy(code, ["c_phone"], [
        Aggregate(AggregateFunction.COUNT, alias="numcust"),
        Aggregate(AggregateFunction.SUM, "c_acctbal", alias="totacctbal"),
    ])
    return QueryPlan(grouped)


# ---------------------------------------------------------------------------
# The catalogue
# ---------------------------------------------------------------------------

QUERIES: tuple[TpchQuery, ...] = (
    TpchQuery(
        1, "pricing summary report",
        "Aggregates returned/shipped lineitems per flag and status.",
        "select l_returnflag, l_linestatus,"
        " sum(l_quantity) as sum_qty,"
        " sum(l_extendedprice) as sum_base_price,"
        " avg(l_quantity) as avg_qty,"
        " avg(l_extendedprice) as avg_price,"
        " avg(l_discount) as avg_disc,"
        " count(*) as count_order"
        " from lineitem"
        " where l_shipdate <= date '1998-09-02'"
        " group by l_returnflag, l_linestatus",
        ("derived sums (disc_price, charge) reduced to their base-price "
         "aggregates",),
    ),
    TpchQuery(
        2, "minimum cost supplier",
        "Cheapest European supplier per brass part.",
        "select p_partkey, min(ps_supplycost) as min_cost"
        " from part join partsupp on p_partkey = ps_partkey"
        " join supplier on s_suppkey = ps_suppkey"
        " join nation on n_nationkey = s_nationkey"
        " join region on r_regionkey = n_regionkey"
        " where p_size = 15 and p_type like '%BRASS'"
        " and r_name = 'EUROPE'"
        " group by p_partkey",
        ("correlated min-cost subquery flattened into a grouped min",),
    ),
    TpchQuery(
        3, "shipping priority",
        "Unshipped orders with the highest revenue.",
        "select l_orderkey, o_orderdate, o_shippriority,"
        " sum(l_extendedprice) as revenue"
        " from customer join orders on c_custkey = o_custkey"
        " join lineitem on o_orderkey = l_orderkey"
        " where c_mktsegment = 'BUILDING'"
        " and o_orderdate < date '1995-03-15'"
        " and l_shipdate > date '1995-03-15'"
        " group by l_orderkey, o_orderdate, o_shippriority",
        ("revenue keeps the undiscounted extended price",),
    ),
    TpchQuery(
        4, "order priority checking",
        "Orders with at least one late lineitem, by priority.",
        "select o_orderpriority, count(*) as order_count"
        " from orders join lineitem on o_orderkey = l_orderkey"
        " where o_orderdate >= date '1993-07-01'"
        " and o_orderdate < date '1993-10-01'"
        " and l_commitdate < l_receiptdate"
        " group by o_orderpriority",
        ("EXISTS semi-join becomes an inner join (counts lineitems, not "
         "orders)",),
    ),
    TpchQuery(
        5, "local supplier volume",
        "Revenue through local suppliers per Asian nation.",
        "select n_name, sum(l_extendedprice) as revenue"
        " from customer join orders on c_custkey = o_custkey"
        " join lineitem on o_orderkey = l_orderkey"
        " join supplier on l_suppkey = s_suppkey"
        " join nation on s_nationkey = n_nationkey"
        " join region on n_regionkey = r_regionkey"
        " where r_name = 'ASIA'"
        " and c_nationkey = s_nationkey"
        " and o_orderdate >= date '1994-01-01'"
        " and o_orderdate < date '1995-01-01'"
        " group by n_name",
        ("revenue keeps the undiscounted extended price",),
    ),
    TpchQuery(
        6, "forecasting revenue change",
        "Revenue of discounted small-quantity lineitems.",
        "select sum(l_extendedprice) as revenue"
        " from lineitem"
        " where l_shipdate >= date '1994-01-01'"
        " and l_shipdate < date '1995-01-01'"
        " and l_discount between 0.05 and 0.07"
        " and l_quantity < 24",
        ("revenue keeps the undiscounted extended price",),
    ),
    TpchQuery(
        7, "volume shipping",
        "Trade volume between two nations per year.",
        "select n_name, sum(l_extendedprice) as revenue"
        " from supplier join lineitem on s_suppkey = l_suppkey"
        " join orders on o_orderkey = l_orderkey"
        " join customer on c_custkey = o_custkey"
        " join nation on s_nationkey = n_nationkey"
        " where n_name in ('FRANCE', 'GERMANY')"
        " and l_shipdate >= date '1995-01-01'"
        " and l_shipdate <= date '1996-12-31'"
        " group by n_name",
        ("the nation self-join becomes an IN predicate (global attribute "
         "names preclude self-joins)",
         "per-year grouping dropped (no year extraction without a udf)"),
    ),
    TpchQuery(
        8, "national market share",
        "Volume per order year for a part type in a region.",
        None,
        ("market-share ratio reduced to per-year volume",
         "year extraction is a udf (µ), exercising the model's udf rule"),
        builder=_q8_builder,
    ),
    TpchQuery(
        9, "product type profit",
        "Profit on green parts per supplying nation.",
        None,
        ("per-year grouping dropped",
         "profit expression is a udf (µ) over four attributes"),
        builder=_q9_builder,
    ),
    TpchQuery(
        10, "returned item reporting",
        "Customers who returned items, with lost revenue.",
        "select c_custkey, c_name, c_acctbal, n_name,"
        " sum(l_extendedprice) as revenue"
        " from customer join orders on c_custkey = o_custkey"
        " join lineitem on o_orderkey = l_orderkey"
        " join nation on c_nationkey = n_nationkey"
        " where o_orderdate >= date '1993-10-01'"
        " and o_orderdate < date '1994-01-01'"
        " and l_returnflag = 'R'"
        " group by c_custkey, c_name, c_acctbal, n_name",
        ("revenue keeps the undiscounted extended price",),
    ),
    TpchQuery(
        11, "important stock identification",
        "Part value held by German suppliers.",
        "select ps_partkey, sum(ps_supplycost) as value"
        " from partsupp join supplier on ps_suppkey = s_suppkey"
        " join nation on s_nationkey = n_nationkey"
        " where n_name = 'GERMANY'"
        " group by ps_partkey"
        " having sum(ps_supplycost) > 100",
        ("value keeps supply cost without the quantity factor",
         "the global-fraction threshold subquery becomes a constant"),
    ),
    TpchQuery(
        12, "shipping modes and order priority",
        "Late lineitems per ship mode.",
        "select l_shipmode, count(*) as line_count"
        " from orders join lineitem on o_orderkey = l_orderkey"
        " where l_shipmode in ('MAIL', 'SHIP')"
        " and l_shipdate < l_commitdate"
        " and l_commitdate < l_receiptdate"
        " and l_receiptdate >= date '1994-01-01'"
        " and l_receiptdate < date '1995-01-01'"
        " group by l_shipmode",
        ("the high/low priority split becomes a plain count",),
    ),
    TpchQuery(
        13, "customer distribution",
        "Orders per customer.",
        "select c_custkey, count(*) as c_count"
        " from customer join orders on c_custkey = o_custkey"
        " group by c_custkey",
        ("left outer join becomes inner (zero-order customers drop out)",
         "the o_comment NOT LIKE filter is dropped"),
    ),
    TpchQuery(
        14, "promotion effect",
        "Revenue share of promotional parts in one month.",
        None,
        ("the promo ratio becomes a promo-revenue sum",
         "promo detection is a udf (µ) over the part type"),
        builder=_q14_builder,
    ),
    TpchQuery(
        15, "top supplier",
        "Suppliers above a revenue threshold in one quarter.",
        None,
        ("the max-revenue subquery becomes a constant threshold",
         "demonstrates a join above a group-by in the model"),
        builder=_q15_builder,
    ),
    TpchQuery(
        16, "parts/supplier relationship",
        "Supplier counts per brand/type/size.",
        "select p_brand, p_type, p_size, count(*) as supplier_cnt"
        " from partsupp join part on p_partkey = ps_partkey"
        " where p_brand <> 'Brand#45'"
        " and p_size in (49, 14, 23, 45, 19, 3, 36, 9)"
        " group by p_brand, p_type, p_size",
        ("count(distinct) becomes count", "NOT LIKE filter dropped"),
    ),
    TpchQuery(
        17, "small-quantity-order revenue",
        "Revenue lost to small orders of one part class.",
        "select sum(l_extendedprice) as avg_yearly"
        " from lineitem join part on p_partkey = l_partkey"
        " where p_brand = 'Brand#23'"
        " and p_container = 'MED BOX'"
        " and l_quantity < 5",
        ("the correlated avg-quantity subquery becomes a constant "
         "threshold",),
    ),
    TpchQuery(
        18, "large volume customer",
        "Orders above 300 total quantity, with their customers.",
        "select c_custkey, o_orderkey, o_orderdate, o_totalprice,"
        " sum(l_quantity) as total_qty"
        " from customer join orders on c_custkey = o_custkey"
        " join lineitem on o_orderkey = l_orderkey"
        " group by c_custkey, o_orderkey, o_orderdate, o_totalprice"
        " having sum(l_quantity) > 300",
        ("the IN-subquery formulation becomes a direct grouped having",),
    ),
    TpchQuery(
        19, "discounted revenue",
        "Revenue from one brand/container/quantity class.",
        "select sum(l_extendedprice) as revenue"
        " from lineitem join part on p_partkey = l_partkey"
        " where p_brand = 'Brand#12'"
        " and p_container in ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')"
        " and l_quantity between 1 and 11"
        " and p_size between 1 and 5"
        " and l_shipmode in ('AIR', 'REG AIR')"
        " and l_shipinstruct = 'DELIVER IN PERSON'",
        ("one representative conjunctive block of the three OR blocks",),
    ),
    TpchQuery(
        20, "potential part promotion",
        "Canadian suppliers with forest-part stock.",
        "select s_suppkey, sum(ps_availqty) as avail"
        " from supplier join nation on s_nationkey = n_nationkey"
        " join partsupp on ps_suppkey = s_suppkey"
        " join part on p_partkey = ps_partkey"
        " where n_name = 'CANADA'"
        " and p_name like 'forest%'"
        " group by s_suppkey",
        ("the half-of-shipped-quantity subquery is dropped",),
    ),
    TpchQuery(
        21, "suppliers who kept orders waiting",
        "Late Saudi suppliers on multi-supplier orders.",
        "select s_name, count(*) as numwait"
        " from supplier join lineitem on s_suppkey = l_suppkey"
        " join orders on o_orderkey = l_orderkey"
        " join nation on s_nationkey = n_nationkey"
        " where o_orderstatus = 'F'"
        " and l_commitdate < l_receiptdate"
        " and n_name = 'SAUDI ARABIA'"
        " group by s_name",
        ("the EXISTS/NOT EXISTS multi-supplier conditions are dropped",),
    ),
    TpchQuery(
        22, "global sales opportunity",
        "Account balances of idle customers per country code.",
        None,
        ("country-code extraction is a udf (µ) over the phone number",
         "the NOT EXISTS anti-join and avg-balance subquery become a "
         "positive-balance filter"),
        builder=_q22_builder,
    ),
)


def query(number: int) -> TpchQuery:
    """Look up one of the 22 queries by number."""
    if not 1 <= number <= 22:
        raise PlanError(f"TPC-H defines queries 1..22, not {number}")
    return QUERIES[number - 1]


def all_queries() -> tuple[TpchQuery, ...]:
    """All 22 queries, in order."""
    return QUERIES


def query_plan(number: int, schema: Schema) -> QueryPlan:
    """Convenience: the plan of query ``number`` against ``schema``."""
    return query(number).plan(schema)
