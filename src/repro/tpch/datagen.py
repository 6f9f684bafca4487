"""Deterministic TPC-H data generator (a small, pure-Python dbgen).

Generates the eight tables with the official schema, referentially
consistent keys, and the value domains queries select on (market
segments, ship modes, brands, date ranges, ...).  A fixed seed makes
generation reproducible; sizes follow the TPC-H scaling rules via
:func:`repro.tpch.schema.table_rows`.

Substitutes the authors' 1 GB dbgen database: the evaluation reports
normalized costs, so the scale factor cancels out.
"""

from __future__ import annotations

import random
from datetime import date, timedelta

from repro.engine.table import Table
from repro.tpch.schema import table_rows

REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")
NATIONS = (
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
)
MARKET_SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD",
                   "MACHINERY")
ORDER_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
                    "5-LOW")
SHIP_MODES = ("AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK")
SHIP_INSTRUCTIONS = ("COLLECT COD", "DELIVER IN PERSON", "NONE",
                     "TAKE BACK RETURN")
CONTAINERS = ("SM CASE", "SM BOX", "MED BOX", "MED BAG", "LG CASE",
              "LG BOX", "JUMBO PKG", "WRAP CASE", "JUMBO BOX", "LG CAN")
TYPE_SYLLABLES_1 = ("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY",
                    "PROMO")
TYPE_SYLLABLES_2 = ("ANODIZED", "BURNISHED", "PLATED", "POLISHED",
                    "BRUSHED")
TYPE_SYLLABLES_3 = ("TIN", "NICKEL", "BRASS", "STEEL", "COPPER")
NAME_WORDS = ("almond", "antique", "aquamarine", "azure", "beige", "bisque",
              "black", "blanched", "blue", "blush", "brown", "burlywood",
              "burnished", "chartreuse", "chiffon", "chocolate", "coral",
              "cornflower", "cornsilk", "cream", "cyan", "dark", "deep",
              "dim", "dodger", "drab", "firebrick", "floral", "forest",
              "frosted", "gainsboro", "ghost", "goldenrod", "green", "grey",
              "honeydew", "hot", "hotpink", "indian", "ivory", "khaki")

START_DATE = date(1992, 1, 1)
END_DATE = date(1998, 12, 1)
_DATE_SPAN = (END_DATE - START_DATE).days


class TpchData:
    """The generated database: one :class:`Table` per relation."""

    def __init__(self, tables: dict[str, Table], scale: float,
                 seed: int) -> None:
        self.tables = tables
        self.scale = scale
        self.seed = seed

    def table(self, name: str) -> Table:
        """Look up a generated table."""
        return self.tables[name]

    def catalog(self) -> dict[str, Table]:
        """All tables keyed by relation name (executor catalog)."""
        return dict(self.tables)

    def __repr__(self) -> str:
        sizes = ", ".join(f"{n}={len(t)}" for n, t in self.tables.items())
        return f"TpchData(scale={self.scale}; {sizes})"


#: Non-key measure columns that ``null_rate`` may blank out — keys and
#: the columns queries group on stay NOT NULL, like real TPC-H.
NULLABLE_COLUMNS: dict[str, tuple[str, ...]] = {
    "supplier": ("s_acctbal",),
    "customer": ("c_acctbal",),
    "part": ("p_retailprice",),
    "partsupp": ("ps_supplycost",),
    "orders": ("o_totalprice",),
    "lineitem": ("l_discount", "l_tax"),
}


def generate(scale: float = 0.001, seed: int = 20170801,
             null_rate: float = 0.0) -> TpchData:
    """Generate the TPC-H database at scale factor ``scale``.

    ``null_rate`` (0.0–1.0) replaces that fraction of the
    :data:`NULLABLE_COLUMNS` measure values with SQL NULL (``None``) —
    an opt-in stressor for the engine's NULL-handling paths; the default
    keeps the classic all-populated database.

    Examples
    --------
    >>> data = generate(scale=0.001)
    >>> len(data.table("region"))
    5
    >>> len(data.table("lineitem")) >= 1000
    True
    >>> sparse = generate(scale=0.001, null_rate=0.5)
    >>> any(v is None for v in sparse.table("orders")
    ...     .column_values("o_totalprice"))
    True
    """
    if not 0.0 <= null_rate <= 1.0:
        raise ValueError(f"null_rate must be in [0, 1], got {null_rate}")
    rng = random.Random(seed)
    tables: dict[str, Table] = {}

    tables["region"] = Table("region",
                             ("r_regionkey", "r_name", "r_comment"), [
        (i, name, f"region {name.lower()}")
        for i, name in enumerate(REGIONS)
    ])

    tables["nation"] = Table(
        "nation",
        ("n_nationkey", "n_name", "n_regionkey", "n_comment"),
        [(i, name, region, f"nation {name.lower()}")
         for i, (name, region) in enumerate(NATIONS)],
    )

    supplier_count = table_rows("supplier", scale)
    tables["supplier"] = Table(
        "supplier",
        ("s_suppkey", "s_name", "s_address", "s_nationkey", "s_phone",
         "s_acctbal", "s_comment"),
        [(k,
          f"Supplier#{k:09d}",
          f"addr-{rng.randrange(10**6)}",
          rng.randrange(len(NATIONS)),
          _phone(rng),
          round(rng.uniform(-999.99, 9999.99), 2),
          "supplier comment")
         for k in range(1, supplier_count + 1)],
    )

    customer_count = table_rows("customer", scale)
    tables["customer"] = Table(
        "customer",
        ("c_custkey", "c_name", "c_address", "c_nationkey", "c_phone",
         "c_acctbal", "c_mktsegment", "c_comment"),
        [(k,
          f"Customer#{k:09d}",
          f"addr-{rng.randrange(10**6)}",
          rng.randrange(len(NATIONS)),
          _phone(rng),
          round(rng.uniform(-999.99, 9999.99), 2),
          rng.choice(MARKET_SEGMENTS),
          "customer comment")
         for k in range(1, customer_count + 1)],
    )

    part_count = table_rows("part", scale)
    tables["part"] = Table(
        "part",
        ("p_partkey", "p_name", "p_mfgr", "p_brand", "p_type", "p_size",
         "p_container", "p_retailprice", "p_comment"),
        [(k,
          " ".join(rng.sample(NAME_WORDS, 3)),
          f"Manufacturer#{rng.randrange(1, 6)}",
          f"Brand#{rng.randrange(1, 6)}{rng.randrange(1, 6)}",
          " ".join((rng.choice(TYPE_SYLLABLES_1),
                    rng.choice(TYPE_SYLLABLES_2),
                    rng.choice(TYPE_SYLLABLES_3))),
          rng.randrange(1, 51),
          rng.choice(CONTAINERS),
          round(900 + (k % 1000) + rng.uniform(0, 100), 2),
          "part comment")
         for k in range(1, part_count + 1)],
    )

    partsupp_count = table_rows("partsupp", scale)
    partsupp_rows = []
    for index in range(partsupp_count):
        partkey = (index % part_count) + 1
        suppkey = ((index * 7) % supplier_count) + 1
        partsupp_rows.append((
            partkey, suppkey,
            rng.randrange(1, 10_000),
            round(rng.uniform(1.0, 1000.0), 2),
            "partsupp comment",
        ))
    tables["partsupp"] = Table(
        "partsupp",
        ("ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost",
         "ps_comment"),
        partsupp_rows,
    )

    orders_count = table_rows("orders", scale)
    order_dates: dict[int, date] = {}
    orders_rows = []
    for k in range(1, orders_count + 1):
        order_date = START_DATE + timedelta(
            days=rng.randrange(_DATE_SPAN - 151)
        )
        order_dates[k] = order_date
        orders_rows.append((
            k,
            rng.randrange(1, customer_count + 1),
            rng.choice("OFP"),
            round(rng.uniform(850.0, 500_000.0), 2),
            order_date,
            rng.choice(ORDER_PRIORITIES),
            f"Clerk#{rng.randrange(1, 1001):09d}",
            0,
            "order comment",
        ))
    tables["orders"] = Table(
        "orders",
        ("o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
         "o_orderdate", "o_orderpriority", "o_clerk", "o_shippriority",
         "o_comment"),
        orders_rows,
    )

    lineitem_count = table_rows("lineitem", scale)
    lineitem_rows = []
    produced = 0
    orderkey = 0
    while produced < lineitem_count:
        orderkey = orderkey % orders_count + 1
        lines = rng.randrange(1, 8)
        order_date = order_dates[orderkey]
        for line in range(1, lines + 1):
            if produced >= lineitem_count:
                break
            quantity = rng.randrange(1, 51)
            price = round(quantity * rng.uniform(900.0, 1100.0), 2)
            ship_date = order_date + timedelta(days=rng.randrange(1, 122))
            commit_date = order_date + timedelta(days=rng.randrange(30, 91))
            receipt_date = ship_date + timedelta(days=rng.randrange(1, 31))
            lineitem_rows.append((
                orderkey,
                rng.randrange(1, part_count + 1),
                rng.randrange(1, supplier_count + 1),
                line,
                quantity,
                price,
                round(rng.uniform(0.0, 0.10), 2),
                round(rng.uniform(0.0, 0.08), 2),
                rng.choice("ANR"),
                rng.choice("OF"),
                ship_date,
                commit_date,
                receipt_date,
                rng.choice(SHIP_INSTRUCTIONS),
                rng.choice(SHIP_MODES),
                "lineitem comment",
            ))
            produced += 1
    tables["lineitem"] = Table(
        "lineitem",
        ("l_orderkey", "l_partkey", "l_suppkey", "l_linenumber",
         "l_quantity", "l_extendedprice", "l_discount", "l_tax",
         "l_returnflag", "l_linestatus", "l_shipdate", "l_commitdate",
         "l_receiptdate", "l_shipinstruct", "l_shipmode", "l_comment"),
        lineitem_rows,
    )

    if null_rate > 0.0:
        _inject_nulls(tables, null_rate, rng)

    return TpchData(tables, scale, seed)


def _inject_nulls(tables: dict[str, Table], rate: float,
                  rng: random.Random) -> None:
    """Blank out a ``rate`` fraction of the nullable measure columns."""
    for name, columns in NULLABLE_COLUMNS.items():
        table = tables[name]
        positions = table.positions(columns)
        rows = []
        for row in table.rows:
            cells = list(row)
            for position in positions:
                if rng.random() < rate:
                    cells[position] = None
            rows.append(tuple(cells))
        tables[name] = Table(name, table.columns, rows)


def _phone(rng: random.Random) -> str:
    return (f"{rng.randrange(10, 35)}-{rng.randrange(100, 1000)}-"
            f"{rng.randrange(100, 1000)}-{rng.randrange(1000, 10_000)}")
