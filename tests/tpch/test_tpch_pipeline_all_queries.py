"""The full §6 pipeline on every TPC-H query under every scenario.

These are the workhorse integration checks behind Figures 9/10: for all
22 queries × 3 scenarios, the assignment pipeline must produce a
verified-authorized extended plan whose keys distribute consistently
and which renders into sub-queries, with scenario costs dominated
UA ≥ UAPenc ≥ UAPmix.  Every query written in SQL (17 of the 22; 8, 9,
14, 15 and 22 are built from operators) also *executes* under all three
scenarios through ``QueryService`` and returns the plaintext answer.
"""

import re

import pytest

from repro.core.dispatch import dispatch
from repro.core.operators import Decrypt, Encrypt
from repro.core.visibility import verify_assignment
from repro.cost.pricing import PriceList
from repro.core.assignment import assign
from repro.engine import Executor
from repro.service import QueryService
from repro.sql.planner import plan_query
from repro.tpch import SCENARIOS, TPCH_UDFS, all_queries, all_scenarios, \
    build_tpch_schema, query, query_plan

from helpers import authority_tables
from oracles.delivery_monitor import violations

SCALE = 0.05


@pytest.fixture(scope="module")
def schema():
    return build_tpch_schema(SCALE)


@pytest.fixture(scope="module")
def scenarios(schema):
    return all_scenarios(schema)


@pytest.mark.parametrize("number", range(1, 23))
def test_pipeline_all_queries_all_scenarios(schema, scenarios, number):
    costs = {}
    for name, scenario_obj in scenarios.items():
        plan = query_plan(number, schema)
        prices = PriceList.from_subjects(scenario_obj.subjects)
        outcome = assign(
            plan, scenario_obj.policy, scenario_obj.subject_names,
            prices, user=scenario_obj.user, owners=scenario_obj.owners,
        )
        # The chosen plan is genuinely authorized...
        assert verify_assignment(
            outcome.extended.plan, scenario_obj.policy,
            outcome.extended.assignment,
        )
        # ...its assignment is drawn from Λ...
        for node, subject in outcome.assignment.items():
            assert subject in outcome.candidates[node]
        # ...every encrypted attribute has an established key...
        for attribute in outcome.extended.encrypted_attributes:
            assert outcome.keys.key_for(attribute)
        # ...and the plan renders into sub-queries, each encryption and
        # decryption (which may name the alias of what was encrypted
        # below it) holding the key of every attribute it names.
        assert dispatch(outcome.extended, outcome.keys,
                        owners=scenario_obj.owners,
                        user=scenario_obj.user).fragments
        for node in outcome.extended.plan.postorder():
            if isinstance(node, (Encrypt, Decrypt)):
                held = outcome.keys.keys_for_subject(
                    outcome.extended.assignee(node))
                for attribute in node.attributes:
                    assert outcome.keys.key_for(attribute) in held, \
                        (name, node.label(), attribute)
        costs[name] = outcome.cost.total_usd
    assert costs["UAPenc"] <= costs["UA"] * (1 + 1e-9)
    assert costs["UAPmix"] <= costs["UAPenc"] * (1 + 1e-9)


@pytest.mark.parametrize("number", [11, 20])
def test_encryption_marker_sits_once_on_each_encrypted_attribute(
        schema, scenarios, number):
    """``s_suppkey`` is a substring of ``ps_suppkey``: P1's join
    condition under UAPenc read ``ps_suppkey^k^k=s_suppkey^k`` while the
    marker was placed by substring replacement."""
    for scenario_obj in scenarios.values():
        outcome = assign(
            query_plan(number, schema), scenario_obj.policy,
            scenario_obj.subject_names,
            PriceList.from_subjects(scenario_obj.subjects),
            user=scenario_obj.user, owners=scenario_obj.owners)
        plan = dispatch(outcome.extended, outcome.keys,
                        owners=scenario_obj.owners, user=scenario_obj.user)
        profiles = outcome.extended.plan.profiles()
        for fragment in plan.fragments.values():
            assert "^k^k" not in fragment.text
            inside = list(fragment.nodes) + [
                plan.fragment(child).root
                for child in fragment.requests.values()]
            encrypted = frozenset().union(
                *(profiles[node].visible_encrypted for node in inside))
            assert set(re.findall(r"(\w+)\^k", fragment.text)) <= encrypted


@pytest.mark.parametrize("number", [3, 9, 18])
def test_ua_assignments_avoid_providers(schema, scenarios, number):
    """In UA, providers hold no authorizations and never appear."""
    scenario_obj = scenarios["UA"]
    plan = query_plan(number, schema)
    prices = PriceList.from_subjects(scenario_obj.subjects)
    outcome = assign(
        plan, scenario_obj.policy, scenario_obj.subject_names, prices,
        user=scenario_obj.user, owners=scenario_obj.owners,
    )
    assert not any(
        subject.startswith("P") for subject in outcome.assignment.values()
    )


@pytest.mark.parametrize("number", [5, 13, 21])
def test_uapenc_assignments_use_providers(schema, scenarios, number):
    """Provider-friendly queries actually delegate under UAPenc."""
    scenario_obj = scenarios["UAPenc"]
    plan = query_plan(number, schema)
    prices = PriceList.from_subjects(scenario_obj.subjects)
    outcome = assign(
        plan, scenario_obj.policy, scenario_obj.subject_names, prices,
        user=scenario_obj.user, owners=scenario_obj.owners,
    )
    assert any(
        subject.startswith("P") for subject in outcome.assignment.values()
    )


#: Scale and generator seed of the benchmark's first dataset: 16 of the
#: 17 SQL templates return rows on it, and Q5 and Q7 both do.
EXECUTE_SCALE, EXECUTE_SEED = 0.002, 107
SQL_TEMPLATES = [q.number for q in all_queries() if q.sql is not None]


@pytest.fixture(scope="module")
def executed_data(tpch_data):
    schema = build_tpch_schema(EXECUTE_SCALE)
    data = tpch_data(EXECUTE_SCALE, EXECUTE_SEED)
    return schema, data, authority_tables(data)


@pytest.fixture(scope="module")
def executing(executed_data):
    """A UAPenc service planning on the benchmark's statistics over the
    smallest data that returns rows for both Q5 and Q7."""
    schema = build_tpch_schema(0.1)
    _, data, tables = executed_data
    scenario_obj = all_scenarios(schema)["UAPenc"]
    service = QueryService(
        schema, scenario_obj.policy, scenario_obj.subjects,
        scenario_obj.owners, tables, user=scenario_obj.user,
        udfs=TPCH_UDFS)
    return schema, data, service


#: Whether the UAPenc plan decrypts ``revenue``: Q5's stopped once its
#: plan kept ``c_nationkey = s_nationkey`` (ROADMAP item 11).
DECRYPTS_REVENUE = {5: False, 7: True}


@pytest.mark.parametrize("number", [5, 7])
def test_decrypted_aggregate_alias_executes(executing, number):
    """Q7 under UAPenc decrypts ``revenue``, the alias of a Paillier sum
    over ``l_extendedprice``, at the user: the alias needs its source's
    key there.  Q5 no longer plans that decryption; both answers still
    equal the plaintext executor's."""
    schema, data, service = executing
    outcome = service.execute(query(number).sql)
    assert any("revenue" in node.attributes
               for node in outcome.assignment.extended.decryption_operations()
               ) is DECRYPTS_REVENUE[number]
    plain = Executor(data.catalog(), udfs=TPCH_UDFS).execute(
        query_plan(number, schema))
    assert outcome.result.columns == plain.columns
    assert len(plain) > 0
    # Paillier sums are fixed-point: equal up to rounding.
    assert outcome.result.sorted_rows() == [
        pytest.approx(row) for row in plain.sorted_rows()]


@pytest.fixture(scope="module", params=SCENARIOS)
def scenario_service(request, executed_data):
    """One service per scenario, shared by every template under it."""
    schema, _, tables = executed_data
    setting = all_scenarios(schema)[request.param]
    return QueryService(
        schema, setting.policy, setting.subjects, setting.owners, tables,
        user=setting.user, udfs=TPCH_UDFS)


@pytest.mark.parametrize("number", SQL_TEMPLATES)
def test_every_sql_template_executes_under_every_scenario(
        executed_data, scenario_service, number):
    schema, data, _ = executed_data
    sql = query(number).sql
    outcome = scenario_service.execute(sql)
    assert not violations(outcome.trace.deliveries, scenario_service.policy)
    plain = Executor(data.catalog(), udfs=TPCH_UDFS).execute(
        plan_query(sql, schema))
    assert outcome.result.columns == plain.columns
    rows, expected = outcome.result.sorted_rows(), plain.sorted_rows()
    assert len(rows) == len(expected)
    for row, wanted in zip(rows, expected):
        assert row == pytest.approx(wanted, rel=1e-6, abs=1e-9)
