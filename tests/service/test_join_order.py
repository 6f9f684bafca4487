"""The service's join-order choice (``QueryService._choose_plan``).

On a plan-cache miss the service plans the SQL in FROM order and, when
it differs, owner-first (:func:`repro.sql.planner.join_orders`), prices
both with ``assign`` from the querying user's seat and keeps the
cheaper by exact §7 cost, FROM order on a tie.  Only the kept plan stays
in the plan cache, under (SQL text, user), and only its assignment in
the assignment cache; that user's every later run, and every re-plan
after a policy delta, reuses it.
"""

import pytest

from repro.core.assignment import assign
from repro.core.authorization import Authorization
from repro.service import QueryService
from repro.sql.planner import join_orders, plan_query
from repro.tpch import TPCH_UDFS, all_queries, build_tpch_schema, scenario

from helpers import authority_tables

SCALE, SEED = 0.002, 107
SQL = {q.number: q.sql for q in all_queries() if q.sql is not None}
#: The templates ``policy_churn`` replays.
CHURN = (3, 5, 10, 12, 18, 19)


@pytest.fixture()
def service(tpch_data):
    schema = build_tpch_schema(SCALE)
    setting = scenario("UAPenc", schema)
    return QueryService(schema, setting.policy, setting.subjects,
                        setting.owners,
                        authority_tables(tpch_data(SCALE, SEED)),
                        user=setting.user, udfs=TPCH_UDFS)


def from_order_cost(service, number, user=None):
    """What FROM order costs ``user`` (the service's by default) under
    the service's policy right now."""
    plan = plan_query(SQL[number], service.schema)
    return assign(plan, service.policy, service.subject_names,
                  service.prices, user=user or service.user,
                  owners=service.owners).cost.total_usd


def leaves(outcome):
    return tuple(leaf.relation.name
                 for leaf in outcome.assignment.extended.original.leaves())


class TestChoice:
    def test_the_cheaper_order_is_kept_and_the_other_leaves_no_entry(
            self, service):
        outcome = service.execute(SQL[5])
        assert leaves(outcome) == join_orders(
            SQL[5], service.schema, service.owners)[1]
        assert outcome.cost_usd < from_order_cost(service, 5)
        info = service.cache_info()
        assert info["plans"] == 1
        assert info["assignment"]["size"] == 1
        assert info["assignment"]["misses"] == 2
        assert not outcome.plan_cached and not outcome.assignment_cached

    def test_a_tie_goes_to_from_order(self, service):
        orders = join_orders(SQL[12], service.schema, service.owners)
        assert len(orders) == 2
        outcome = service.execute(SQL[12])
        assert outcome.cost_usd == from_order_cost(service, 12)
        assert leaves(outcome) == orders[0]

    def test_later_runs_reuse_the_chosen_plan(self, service):
        cold = service.execute(SQL[5])
        warm = service.execute(SQL[5])
        assert warm.plan_cached and warm.assignment_cached
        assert warm.assignment is cold.assignment
        assert service.cache_info()["assignment"]["misses"] == 2

    def test_every_template_costs_at_most_its_from_order(self, service):
        for number, sql in SQL.items():
            assert service.execute(sql).cost_usd <= \
                from_order_cost(service, number), number


class TestReplan:
    def test_a_touching_delta_replans_the_chosen_order_at_no_more_than_from(
            self, service):
        """The revoke ``policy_churn`` replays touches all six churn
        templates (each reads ``lineitem``); each re-plan keeps the
        order chosen before it, and that order stays no dearer than FROM
        order under the revoked policy."""
        chosen = {n: service.execute(SQL[n]) for n in CHURN}
        service.policy.revoke("lineitem", "P1")
        for number in CHURN:
            again = service.execute(SQL[number])
            assert again.plan_cached and not again.assignment_cached
            assert again.assignment.extended.original is \
                chosen[number].assignment.extended.original
            assert again.cost_usd <= from_order_cost(service, number)


class TestUsers:
    def test_a_second_user_chooses_from_its_own_seat(self, tpch_data):
        """A second user's first run of a text the first user already
        chose for is a plan-cache miss: it is priced from the second
        user's seat, and what it keeps costs that user no more than
        FROM order."""
        schema = build_tpch_schema(SCALE)
        setting = scenario("UA", schema)
        for relation in schema.relations.values():
            setting.policy.grant(Authorization(
                relation, relation.attribute_names, (), "P1"))
        service = QueryService(schema, setting.policy, setting.subjects,
                               setting.owners,
                               authority_tables(tpch_data(SCALE, SEED)),
                               user=setting.user, udfs=TPCH_UDFS)
        for number in CHURN:
            first = service.execute(SQL[number])
            second = service.execute(SQL[number], user="P1")
            assert not second.plan_cached, number
            assert second.assignment.extended.original is not \
                first.assignment.extended.original, number
            assert second.cost_usd <= \
                from_order_cost(service, number, user="P1"), number
            again = service.execute(SQL[number])
            assert again.plan_cached and again.assignment is \
                first.assignment, number
        assert service.cache_info()["plans"] == 2 * len(CHURN)
