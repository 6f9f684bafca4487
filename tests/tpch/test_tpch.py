"""TPC-H substrate: schema, generator, 22 queries, scenarios."""

import pytest

from repro.core.candidates import compute_candidates
from repro.engine import Executor
from repro.exceptions import AuthorizationError, PlanError
from repro.tpch import (
    TPCH_UDFS,
    all_queries,
    all_scenarios,
    build_tpch_schema,
    generate,
    query,
    query_plan,
    scenario,
    table_owners,
    table_rows,
)

from oracles.plan_order import tables_in_plan_order


@pytest.fixture(scope="module")
def schema():
    return build_tpch_schema(scale=0.01)


@pytest.fixture(scope="module")
def data(tpch_data):
    return tpch_data(0.001, 7)


class TestSchema:
    def test_eight_relations(self, schema):
        assert len(schema) == 8

    def test_scaling_rules(self):
        assert table_rows("region", 0.1) == 5  # unscaled
        assert table_rows("lineitem", 0.1) == 600_000
        assert table_rows("orders", 0.01) == 15_000

    def test_owners_cover_all_tables(self, schema):
        owners = table_owners()
        assert set(owners) == set(r.name for r in schema)
        assert set(owners.values()) == {"A1", "A2"}

    def test_global_attribute_uniqueness(self, schema):
        assert len(schema.all_attributes()) == sum(
            len(r) for r in schema)


class TestDatagen:
    def test_sizes_match_scaling(self, data):
        assert len(data.table("region")) == 5
        assert len(data.table("nation")) == 25
        assert len(data.table("lineitem")) == table_rows("lineitem", 0.001)

    def test_referential_integrity(self, data):
        nation_keys = set(data.table("nation").column_values("n_nationkey"))
        for key in data.table("customer").column_values("c_nationkey"):
            assert key in nation_keys
        order_keys = set(data.table("orders").column_values("o_orderkey"))
        for key in data.table("lineitem").column_values("l_orderkey"):
            assert key in order_keys

    def test_deterministic_given_seed(self):
        first = generate(scale=0.001, seed=3)
        second = generate(scale=0.001, seed=3)
        assert first.table("orders").rows == second.table("orders").rows

    def test_value_domains(self, data):
        segments = set(data.table("customer").column_values("c_mktsegment"))
        assert segments <= {"AUTOMOBILE", "BUILDING", "FURNITURE",
                            "HOUSEHOLD", "MACHINERY"}
        flags = set(data.table("lineitem").column_values("l_returnflag"))
        assert flags <= {"A", "N", "R"}


class TestQueries:
    def test_all_22_defined(self):
        assert len(all_queries()) == 22
        assert query(1).number == 1
        with pytest.raises(PlanError):
            query(23)

    @pytest.mark.parametrize("number", range(1, 23))
    def test_plan_builds_and_profiles(self, schema, data, number):
        # Run node by node, every operator produces exactly the columns
        # its profile says are visible: a node's schema is its profile's.
        plan = query_plan(number, schema)
        profiles = plan.profiles()
        assert profiles[plan.root].visible
        tables = tables_in_plan_order(
            Executor(data.catalog(), udfs=TPCH_UDFS), plan)
        for node in plan.postorder():
            assert frozenset(tables[node].columns) \
                == profiles[node].visible, node.label()

    def test_q1_aggregates_correctly(self, schema, data):
        plan = query_plan(1, schema)
        result = Executor(data.catalog(), udfs=TPCH_UDFS).execute(plan)
        rows = list(result.iter_dicts())
        assert rows
        lineitem = data.table("lineitem")
        cutoff = __import__("datetime").date(1998, 9, 2)
        manual = {}
        for row in lineitem.iter_dicts():
            if row["l_shipdate"] <= cutoff:
                key = (row["l_returnflag"], row["l_linestatus"])
                bucket = manual.setdefault(key, [0, 0])
                bucket[0] += row["l_quantity"]
                bucket[1] += 1
        for row in rows:
            key = (row["l_returnflag"], row["l_linestatus"])
            assert row["sum_qty"] == manual[key][0]
            assert row["count_order"] == manual[key][1]

    def test_approximations_documented(self):
        for q in all_queries():
            assert q.approximations, f"Q{q.number} lists no approximations"


class TestScenarios:
    def test_ua_denies_providers(self, schema):
        ua = scenario("UA", schema)
        view = ua.policy.view("P1")
        assert not view.plaintext and not view.encrypted

    def test_uapenc_grants_all_encrypted(self, schema):
        enc = scenario("UAPenc", schema)
        view = enc.policy.view("P1")
        assert view.encrypted == schema.all_attributes()

    def test_uapmix_prefix_split(self, schema):
        mix = scenario("UAPmix", schema)
        view = mix.policy.view("P1")
        assert view.plaintext and view.encrypted
        assert view.plaintext | view.encrypted == schema.all_attributes()

    def test_unknown_scenario_rejected(self, schema):
        with pytest.raises(AuthorizationError):
            scenario("UAPzzz", schema)
        with pytest.raises(AuthorizationError):
            scenario("UAPmix", schema, mix_split="diagonal")

    def test_alternating_split_breaks_uniform_visibility(self, schema):
        # The ablation premise: under the alternating split, providers
        # lose the big joins to condition 3 (non-uniform visibility).
        prefix = all_scenarios(schema, "prefix")["UAPmix"]
        alternating = all_scenarios(schema, "alternating")["UAPmix"]
        plan_prefix = query_plan(3, schema)
        plan_alt = query_plan(3, schema)
        c_prefix = compute_candidates(
            plan_prefix, prefix.policy, prefix.subject_names)
        c_alt = compute_candidates(
            plan_alt, alternating.policy, alternating.subject_names)
        joins_prefix = [n for n in plan_prefix.operations()
                        if n.label().startswith("⋈")]
        joins_alt = [n for n in plan_alt.operations()
                     if n.label().startswith("⋈")]
        prefix_providers = {
            s for n in joins_prefix for s in c_prefix[n]
            if s.startswith("P")
        }
        alt_providers = {
            s for n in joins_alt for s in c_alt[n] if s.startswith("P")
        }
        assert prefix_providers and not alt_providers


class TestNullBearingData:
    """``generate(null_rate=...)`` data runs end to end (ISSUE 1)."""

    @pytest.fixture(scope="class")
    def sparse(self, tpch_data):
        return tpch_data(0.001, 7, null_rate=0.3)

    def test_nulls_injected_only_in_nullable_columns(self, sparse):
        orders = sparse.table("orders")
        totals = orders.column_values("o_totalprice")
        assert any(v is None for v in totals)
        assert all(v is not None
                   for v in orders.column_values("o_orderkey"))

    def test_aggregate_query_over_nulls(self, sparse, schema):
        from repro.sql.planner import plan_query

        plan = plan_query(
            "select o_orderstatus, avg(o_totalprice), count(*) as n"
            " from orders group by o_orderstatus",
            schema,
        )
        result = Executor(sparse.catalog()).execute(plan)
        pairs = [
            (row["o_orderstatus"], row["o_totalprice"])
            for row in sparse.table("orders").iter_dicts()
        ]
        manual: dict[str, list[float]] = {}
        counts: dict[str, int] = {}
        for status, total in pairs:
            counts[status] = counts.get(status, 0) + 1
            if total is not None:
                manual.setdefault(status, []).append(total)
        for row in result.iter_dicts():
            status = row["o_orderstatus"]
            assert row["n"] == counts[status]
            values = manual.get(status)
            if values is None:
                assert row["o_totalprice"] is None
            else:
                assert abs(row["o_totalprice"]
                           - sum(values) / len(values)) < 1e-9

    def test_join_query_over_nulls(self, sparse, schema):
        from repro.sql.planner import plan_query

        plan = plan_query(
            "select c_name, sum(o_totalprice) as spent"
            " from customer join orders on c_custkey = o_custkey"
            " group by c_name",
            schema,
        )
        result = Executor(sparse.catalog()).execute(plan)
        # Expected values: every order joined on custkey, SUM skipping
        # NULLs (an all-NULL customer sums to NULL, not 0).
        names = {
            row["c_custkey"]: row["c_name"]
            for row in sparse.table("customer").iter_dicts()
        }
        order_pairs = [
            (row["o_custkey"], row["o_totalprice"])
            for row in sparse.table("orders").iter_dicts()
        ]
        expected: dict[str, object] = {}
        totals: dict[str, list[float]] = {}
        for custkey, total in order_pairs:
            name = names[custkey]
            expected.setdefault(name, None)
            if total is not None:
                totals.setdefault(name, []).append(total)
        for name, values in totals.items():
            expected[name] = sum(values)
        got = {row["c_name"]: row["spent"] for row in result.iter_dicts()}
        assert set(got) == set(expected)
        for name, want in expected.items():
            if want is None:
                assert got[name] is None
            else:
                assert abs(got[name] - want) < 1e-6
