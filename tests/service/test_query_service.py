"""QueryService / WorkloadSession: end-to-end SQL workloads with shared
caches, multi-user sessions, and authorization enforcement."""

import pytest

from repro.engine import Executor, Table
from repro.exceptions import SqlAnalysisError, UnauthorizedError
from repro.service import QueryService, WorkloadSession
from repro.tpch import TPCH_UDFS, all_scenarios, build_tpch_schema, query

from helpers import authority_tables

RUNNING_SQL = ("select T, avg(P) from Hosp join Ins on S=C "
               "where D='stroke' group by T having avg(P)>100")
#: H's selection delivered to U in plaintext: one fragment, no key.
PLAIN_SQL = "select S, T from Hosp where D='stroke'"


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

    @pytest.mark.usefixtures("fresh_rsa_keys")
    def test_rsa_keys_generated_once(self, service):
        before = {name: node.rsa_public
                  for name, node in service.runtime.nodes.items()}
        service.execute(RUNNING_SQL)
        service.execute(RUNNING_SQL)
        for name, node in service.runtime.nodes.items():
            assert node.rsa_public is before[name]

    def test_users_of_one_service_never_share_an_envelope_session(
            self, service, monkeypatch):
        """One runtime dispatches for every user; a session key belongs
        to the sending user's key, so a subject both users write to gets
        a different wrapped session key from each."""
        from repro.distributed import runtime as runtime_module

        original = runtime_module.seal_envelope
        wrapped = {}

        def recording_seal(payload, sender_private, recipient_public):
            blob = original(payload, sender_private, recipient_public)
            wrapped.setdefault(recipient_public, {}).setdefault(
                sender_private.public, set()).add(blob[4:4 + 64])
            return blob

        monkeypatch.setattr(runtime_module, "seal_envelope", recording_seal)
        for user in ("U", "Y", "U", "Y"):
            assert service.execute(RUNNING_SQL, user=user) \
                .result.sorted_rows() == [("tpa", 120.0)]
        shared = [by_sender for by_sender in wrapped.values()
                  if len(by_sender) == 2]
        assert shared
        for by_sender in shared:
            first, second = by_sender.values()
            assert len(first) == len(second) == 1
            assert first != second

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
        # Z runs no fragment of either pipeline, but it *is* a candidate
        # the planner priced: revoking its Hosp rule must evict the
        # memoised assignments (the optimum may have shifted).  Each
        # re-plan lands where the evicted plan was, so it adopts that
        # dispatch plan and the fragment results the delta did not touch
        # stay servable; key material is minted afresh all the same.
        cold = service.execute(RUNNING_SQL)
        plain_cold = service.execute(PLAIN_SQL)
        example.policy.revoke("Hosp", "Z")
        warm = service.execute(RUNNING_SQL)
        assert not warm.assignment_cached
        assert warm.reconcile.get("assignment_evicted", 0) > 0
        assert warm.reconcile.get("fragment_evicted", 0) == 0
        plain = service.execute(PLAIN_SQL)
        for before, after in ((cold, warm), (plain_cold, plain)):
            assert after.reconcile.get("assignment_adopted") == 1
            assert not after.keys_reused
            (old_keys, old_plan), = before.assignment.derived
            (new_keys, new_plan), = after.assignment.derived
            assert new_plan is old_plan and new_keys is not old_keys
            assert after.result.sorted_rows() == before.result.sorted_rows()
        # H and I seal the join keys: under the new material their
        # fragments miss, and so does Y's over what they now send.
        assert warm.trace.fragment_cache_hits == 0
        assert len(warm.trace.fragments_run) == 3
        # H's selection for U is keyless: served from cache.
        assert plain.trace.fragment_cache_hits == \
            len(plain.trace.fragments_run) == 1
        assert service.cache_info()["assignment"]["reconcile_adopted"] == 2

    def test_revoke_that_moves_the_plan_renders_a_fresh_dispatch_plan(
            self, example, service):
        # Without its Ins rule Y can no longer join, so X takes the join
        # over encrypted operands: nothing is adopted and nothing cached.
        cold = service.execute(RUNNING_SQL)
        example.policy.revoke("Ins", "Y")
        warm = service.execute(RUNNING_SQL)
        assert "Y" not in warm.assignment.assignment.values()
        assert "assignment_adopted" not in warm.reconcile
        assert warm.assignment.derived[0][1] is not \
            cold.assignment.derived[0][1]
        assert warm.trace.fragment_cache_hits == 0
        assert warm.result.sorted_rows() == cold.result.sorted_rows()

    def test_grant_that_drops_an_encryption_keeps_no_dispatch_plan(
            self, example, service):
        # Y may now see the join keys in plaintext: the assignment stays
        # where it was, but the extension no longer encrypts S and C and
        # no key is established, so the evicted plan is not adopted.
        from repro.core.authorization import Authorization
        from repro.core.operators import Encrypt

        cold = service.execute(RUNNING_SQL)
        policy, schema = example.policy, example.schema
        policy.revoke("Hosp", "Y")
        policy.grant(Authorization(schema.relation("Hosp"), "BDST", "", "Y"))
        policy.revoke("Ins", "Y")
        policy.grant(Authorization(schema.relation("Ins"), "CP", "", "Y"))
        warm = service.execute(RUNNING_SQL)
        assert warm.assignment.assignment == cold.assignment.assignment
        assert "assignment_adopted" not in warm.reconcile
        assert not any(isinstance(node, Encrypt)
                       for node in warm.assignment.extended.plan.nodes())
        assert warm.assignment.keys.keys == ()
        dispatched = warm.assignment.derived[0][1]
        assert dispatched is not cold.assignment.derived[0][1]
        assert not any(f.key_names for f in dispatched.fragments.values())
        assert warm.result.sorted_rows() == cold.result.sorted_rows()

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
        assert info["edge_tables"]["size"] > 0
        assert info["edge_tables"]["misses"] > 0

    def test_each_user_priced_from_own_seat(self, example, service):
        from repro.core.keys import schemes_for_extended_plan
        from repro.cost.estimator import PlanEstimator
        from repro.cost.model import CostModel
        from repro.cost.pricing import PriceList

        # The slow client link follows the querying user: Y's plan is
        # priced over Y's 100 Mbps link, not over the service user U's.
        own_seat = service.execute(RUNNING_SQL, user="Y")
        extended = own_seat.assignment.extended
        model = CostModel(
            PriceList.from_subjects(example.subjects),
            PlanEstimator(schemes_for_extended_plan(extended,
                                                    example.policy)))

        def elapsed(user):
            return model.extended_plan_cost(
                extended, user, example.owners).elapsed_seconds

        assert own_seat.assignment.cost.elapsed_seconds == elapsed("Y") \
            != elapsed("U")

    def test_plan_cache_hot_entry_survives_one_off_queries(self, service):
        from repro.core.cache import LRU

        service._plan_cache = LRU(2)

        def plan_of(sql):
            return service.execute(sql).assignment.extended.original

        hot = plan_of(RUNNING_SQL)
        plan_of(RUNNING_SQL.replace("stroke", "flu"))
        # The hit refreshes recency, so the next one-off insert evicts
        # the earlier one-off, not the hot plan (identity preserved).
        assert plan_of(RUNNING_SQL) is hot
        plan_of(RUNNING_SQL.replace("stroke", "cold"))
        assert plan_of(RUNNING_SQL) is hot

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
    def tpch_service(self, tpch_data):
        scale = 0.002
        schema = build_tpch_schema(scale)
        data = tpch_data(scale, 11)
        scenario_obj = all_scenarios(schema)["UAPenc"]
        service = QueryService(
            schema, scenario_obj.policy, scenario_obj.subjects,
            scenario_obj.owners, authority_tables(data),
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
