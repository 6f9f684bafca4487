"""The full §6 pipeline on every TPC-H query under every scenario.

These are the workhorse integration checks behind Figures 9/10: for all
22 queries × 3 scenarios, the assignment pipeline must produce a
verified-authorized extended plan whose keys distribute consistently
and which renders into sub-queries, with scenario costs dominated
UA ≥ UAPenc ≥ UAPmix.
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
from repro.tpch import TPCH_UDFS, all_scenarios, build_tpch_schema, \
    generate, query, query_plan
from repro.tpch.schema import AUTHORITY_TABLES

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


@pytest.fixture(scope="module")
def executing():
    """A UAPenc service planning on the benchmark's statistics over the
    smallest data that returns rows for both Q5 and Q7."""
    schema = build_tpch_schema(0.1)
    data = generate(scale=0.002, seed=107)
    scenario_obj = all_scenarios(schema)["UAPenc"]
    tables = {authority: {name: data.table(name) for name in names}
              for authority, names in AUTHORITY_TABLES.items()}
    service = QueryService(
        schema, scenario_obj.policy, scenario_obj.subjects,
        scenario_obj.owners, tables, user=scenario_obj.user,
        udfs=TPCH_UDFS)
    return schema, data, service


@pytest.mark.parametrize("number", [5, 7])
def test_decrypted_aggregate_alias_executes(executing, number):
    """Q5 / Q7 under UAPenc decrypt ``revenue``, the alias of a Paillier
    sum over ``l_extendedprice``, at the user: the alias needs its
    source's key there."""
    schema, data, service = executing
    outcome = service.execute(query(number).sql)
    assert any("revenue" in node.attributes
               for node in outcome.assignment.extended.decryption_operations())
    plain = Executor(data.catalog(), udfs=TPCH_UDFS).execute(
        query_plan(number, schema))
    assert outcome.result.columns == plain.columns
    assert len(plain) > 0
    # Paillier sums are fixed-point: equal up to rounding.
    assert outcome.result.sorted_rows() == [
        pytest.approx(row) for row in plain.sorted_rows()]
