"""QueryService / WorkloadSession: end-to-end SQL workloads with shared
caches, multi-user sessions, and authorization enforcement."""

import pytest

from repro.engine import Executor, Table
from repro.exceptions import SqlAnalysisError, UnauthorizedError
from repro.service import QueryService, WorkloadSession
from repro.tpch import TPCH_UDFS, all_scenarios, build_tpch_schema, \
    generate, query
from repro.tpch.schema import table_owners

RUNNING_SQL = ("select T, avg(P) from Hosp join Ins on S=C "
               "where D='stroke' group by T having avg(P)>100")


@pytest.fixture()
def service(example, example_tables):
    return QueryService(
        example.schema, example.policy, example.subjects,
        example.owners,
        {"H": {"Hosp": example_tables["Hosp"]},
         "I": {"Ins": example_tables["Ins"]}},
        user="U",
    )


class TestQueryService:
    def test_end_to_end_result(self, service):
        outcome = service.execute(RUNNING_SQL)
        assert outcome.result.sorted_rows() == [("tpa", 120.0)]
        assert outcome.user == "U"
        assert outcome.wall_seconds > 0
        assert outcome.cost_usd > 0
        assert not outcome.plan_cached
        assert not outcome.assignment_cached
        assert not outcome.keys_reused

    def test_repeat_query_hits_every_cache_layer(self, service):
        cold = service.execute(RUNNING_SQL)
        warm = service.execute(RUNNING_SQL)
        assert warm.result.rows == cold.result.rows
        assert warm.plan_cached
        assert warm.assignment_cached
        assert warm.keys_reused
        assert warm.trace.fragment_cache_hits == \
            len(warm.trace.fragments_run)
        info = service.cache_info()
        assert info["plans"] == 1
        assert info["assignment"]["hits"] == 1

    def test_rsa_keys_generated_once(self, service):
        before = {name: node.rsa_public
                  for name, node in service.runtime.nodes.items()}
        service.execute(RUNNING_SQL)
        service.execute(RUNNING_SQL)
        for name, node in service.runtime.nodes.items():
            assert node.rsa_public is before[name]

    def test_unauthorized_user_is_refused(self, service):
        # X sees P only encrypted: it may never receive the plaintext
        # result, so the pipeline refuses before anything executes.
        with pytest.raises(UnauthorizedError):
            service.execute(RUNNING_SQL, user="X")

    def test_unknown_sql_rejected(self, service):
        with pytest.raises(SqlAnalysisError):
            service.execute("select Z from Nowhere")

    def test_refresh_tables_invalidates_caches(self, service,
                                               example_tables):
        before = service.execute(RUNNING_SQL)
        assert before.result.sorted_rows() == [("tpa", 120.0)]
        richer = Table("Ins", ("C", "P"), [
            ("s1", 150.0), ("s2", 90.0), ("s3", 200.0),
            ("s4", 160.0), ("s5", 150.0),
        ])
        service.refresh_tables({"I": {"Ins": richer}})
        after = service.execute(RUNNING_SQL)
        assert after.result.sorted_rows() == [
            ("surgery", 155.0), ("tpa", 120.0),
        ]

    def test_unrelated_grant_keeps_service_caches_warm(self, example,
                                                       service):
        # A grant to a subject outside the workload's candidate pool is
        # disjoint from every cached entry's dependency footprint: each
        # cache must reconcile surgically and keep its entries warm.
        from repro.core.authorization import Authorization

        service.execute(RUNNING_SQL)
        example.policy.grant(Authorization(
            example.schema.relation("Hosp"), ["T"], ["D"], "Auditor"))
        warm = service.execute(RUNNING_SQL)
        assert warm.assignment_cached
        assert warm.trace.fragment_cache_hits == \
            len(warm.trace.fragments_run)
        assert warm.reconcile.get("assignment_kept", 0) > 0
        assert warm.reconcile.get("assignment_evicted", 0) == 0
        assert warm.reconcile.get("fragment_kept", 0) > 0
        assert warm.reconcile.get("fragment_evicted", 0) == 0
        assert "reconcile[" in warm.describe()

    def test_candidate_revoke_evicts_assignment_but_not_fragments(
            self, example, service):
        # Z runs no fragment of this pipeline, but it *is* a candidate
        # the planner priced: revoking its Hosp rule must evict the
        # memoised assignment (the optimum may have shifted).  Its
        # fragment results go with it — the re-plan runs a new dispatch
        # plan — but not because the delta touched them.
        service.execute(RUNNING_SQL)
        example.policy.revoke("Hosp", "Z")
        warm = service.execute(RUNNING_SQL)
        assert not warm.assignment_cached
        assert warm.reconcile.get("assignment_evicted", 0) > 0
        assert warm.reconcile.get("fragment_evicted", 0) == 0

    def test_involved_revoke_traced_and_recomputed(self, example,
                                                   service):
        # Y holds the join: churning its Ins rule must evict the memoised
        # assignment, and the outcome's reconcile trace must say so.
        cold = service.execute(RUNNING_SQL)
        rule = example.policy.revoke("Ins", "Y")
        example.policy.grant(rule)
        warm = service.execute(RUNNING_SQL)
        assert not warm.assignment_cached
        assert warm.reconcile.get("assignment_evicted", 0) > 0
        assert warm.result.sorted_rows() == cold.result.sorted_rows()

    def test_cache_info_reports_edge_tables(self, service):
        service.execute(RUNNING_SQL)
        info = service.cache_info()
        assert info["edge_tables"]["tables"] > 0
        assert info["edge_tables"]["misses"] > 0

    def test_each_user_priced_from_own_seat(self, example,
                                            example_tables, service):
        from repro.core.assignment import assign
        from repro.cost.network import NetworkTopology
        from repro.cost.pricing import PriceList
        from repro.sql.planner import plan_query

        def priced(topology):
            return assign(
                plan_query(RUNNING_SQL, example.schema), example.policy,
                example.subject_names,
                PriceList.from_subjects(example.subjects), user="Y",
                owners=example.owners, topology=topology,
            ).cost.elapsed_seconds

        # Without an explicit topology the slow client link follows the
        # querying user: Y's plan is priced over Y's 100 Mbps link.
        explicit = NetworkTopology.paper_defaults("U")
        own_seat = service.execute(RUNNING_SQL, user="Y")
        assert own_seat.assignment.cost.elapsed_seconds \
            == priced(NetworkTopology.paper_defaults("Y")) \
            != priced(explicit)
        # An explicit topology is the one used, whoever queries.
        pinned = QueryService(
            example.schema, example.policy, example.subjects,
            example.owners,
            {"H": {"Hosp": example_tables["Hosp"]},
             "I": {"Ins": example_tables["Ins"]}},
            user="U", topology=explicit,
        )
        assert pinned.execute(RUNNING_SQL, user="Y") \
            .assignment.cost.elapsed_seconds == priced(explicit)

    def test_plan_cache_hot_entry_survives_one_off_queries(self, example):
        from repro.core.cache import LRU
        from repro.sql.planner import plan_query

        cache = LRU(2)
        hot = plan_query(RUNNING_SQL, example.schema, cache=cache)
        plan_query("select T from Hosp", example.schema, cache=cache)
        # The hit refreshes recency, so the next one-off insert evicts
        # the earlier one-off, not the hot plan (identity preserved).
        assert plan_query(RUNNING_SQL, example.schema, cache=cache) is hot
        plan_query("select D from Hosp", example.schema, cache=cache)
        assert plan_query(RUNNING_SQL, example.schema, cache=cache) is hot

    def test_refresh_tables_unknown_subject_leaves_state_intact(
            self, service, example_tables):
        from repro.exceptions import DispatchError

        before = service.execute(RUNNING_SQL)
        richer = Table("Ins", ("C", "P"), [
            ("s1", 150.0), ("s2", 90.0), ("s3", 200.0),
            ("s4", 160.0), ("s5", 150.0),
        ])
        # The bad name must be rejected before any table is swapped —
        # a partial update would serve stale caches over new data.
        with pytest.raises(DispatchError):
            service.refresh_tables({"I": {"Ins": richer},
                                    "NOPE": {"X": richer}})
        again = service.execute(RUNNING_SQL)
        assert again.result.sorted_rows() == before.result.sorted_rows()


class TestWorkloadSession:
    def test_session_accumulates_stats(self, service):
        session = service.session()
        assert isinstance(session, WorkloadSession)
        session.run(RUNNING_SQL)
        session.run(RUNNING_SQL)
        assert session.stats.queries == 2
        assert session.stats.rows_returned == 2
        assert session.stats.plan_cache_hits == 1
        assert session.stats.assignment_cache_hits == 1
        assert session.stats.fragment_cache_hits > 0
        assert "2 queries" in session.describe()

    def test_sessions_share_service_caches(self, service):
        first = service.session("U")
        second = service.session("U")
        first.run(RUNNING_SQL)
        outcome = second.run(RUNNING_SQL)
        # A different session, the same service: still warm.
        assert outcome.assignment_cached
        assert outcome.keys_reused

    def test_per_user_authorization_is_separate(self, service):
        denied = service.session("X")
        with pytest.raises(UnauthorizedError):
            denied.run(RUNNING_SQL)
        allowed = service.session("U")
        outcome = allowed.run(RUNNING_SQL)
        assert outcome.result.sorted_rows() == [("tpa", 120.0)]


class TestTpchWorkload:
    @pytest.fixture(scope="class")
    def tpch_service(self):
        scale = 0.002
        schema = build_tpch_schema(scale)
        data = generate(scale=scale, seed=11)
        scenario_obj = all_scenarios(schema)["UAPenc"]
        authority_tables = {"A1": {}, "A2": {}}
        for name, owner in table_owners().items():
            authority_tables[owner][name] = data.table(name)
        service = QueryService(
            schema, scenario_obj.policy, scenario_obj.subjects,
            scenario_obj.owners, authority_tables,
            user=scenario_obj.user, udfs=TPCH_UDFS,
        )
        return service, schema, data

    @pytest.mark.parametrize("number", [3, 5])
    def test_tpch_sql_through_service(self, tpch_service, number):
        service, schema, data = tpch_service
        sql = query(number).sql
        assert sql is not None
        outcome = service.execute(sql)
        plain = Executor(data.catalog(), udfs=TPCH_UDFS).execute(
            query(number).plan(schema))
        assert set(outcome.result.columns) == set(plain.columns)
        assert len(outcome.result) == len(plain)
        warm = service.execute(sql)
        assert warm.assignment_cached
        assert warm.result.rows == outcome.result.rows
