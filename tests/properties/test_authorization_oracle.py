"""The package's one Definition 4.1 / 4.2 agrees with the literal one.

``src/`` states the definitions once, over bitmasks
(``repro.core.attrsets``); the planner, ``verify_assignment`` and the
run-time ``check_profile`` all read that statement, so a bug in it would
reach every layer at once and no second production check would notice.
This property is what notices: over the six generated scenarios and the
66 TPC-H cells (22 queries under UA, UAPenc and UAPmix), for every
(subject, operation) of the plan and of its minimal extension, the mask
verdict equals the literal oracle's (``oracles.authorization_literal``),
and a refusal names the same conditions over the same attributes — for
Def. 4.2 through the kernel, and for Def. 4.1 through ``check_profile``.
"""

import pytest

from repro.core.assignment import assign
from repro.core.attrsets import (
    AttributeUniverse,
    assignee_authorized,
    assignee_violations,
)
from repro.core.candidates import compute_candidates
from repro.core.extension import minimally_extend
from repro.core.lineage import augment_view, derived_lineage
from repro.cost.pricing import PriceList
from repro.distributed.enforcement import check_profile
from repro.exceptions import ReproError, UnauthorizedError
from repro.tpch import all_queries, all_scenarios, build_tpch_schema

from oracles.authorization_literal import check_assignee, check_relation


def assert_agreement(plan, policy, subjects):
    """Mask and literal Def. 4.1 / 4.2 agree on every (subject,
    operation) of ``plan``; returns how many refusals were compared."""
    profiles = plan.profiles()
    lineage = derived_lineage(plan)
    universe = AttributeUniverse()
    refused = 0
    for subject in subjects:
        view = augment_view(policy.view(subject), lineage)
        masks = view.masks(universe)
        for node in plan.operations():
            operands = [profiles[child] for child in node.children]
            expected = check_assignee(view, operands, profiles[node])
            operand_masks = [p.masks(universe) for p in operands]
            result_masks = profiles[node].masks(universe)
            where = (subject, node.label())
            assert assignee_authorized(masks, operand_masks, result_masks) \
                == expected.authorized, where
            assert sorted(assignee_violations(
                masks, operand_masks, result_masks)) \
                == sorted(expected.violations), where
            refused += not expected.authorized

            literal = check_relation(view, profiles[node])
            try:
                check_profile(view, plan, node, "it")
                raised = ()
            except UnauthorizedError as refusal:
                raised = refusal.violations
                assert raised, where
            assert sorted(raised) == sorted(literal.violations), where
    return refused


def test_generated_scenarios_agree(random_scenario):
    scenario = random_scenario
    assert_agreement(scenario.plan, scenario.policy, scenario.subjects)
    candidates = compute_candidates(
        scenario.plan, scenario.policy, scenario.subjects)
    if not all(candidates[node] for node in scenario.plan.operations()):
        pytest.skip("unassignable scenario")
    extended = minimally_extend(
        scenario.plan, scenario.policy,
        {node: sorted(candidates[node])[0]
         for node in scenario.plan.operations()})
    assert_agreement(extended.plan, scenario.policy, scenario.subjects)


@pytest.fixture(scope="module")
def tpch_cells():
    schema = build_tpch_schema(0.1)
    return schema, dict(all_scenarios(schema))


@pytest.mark.parametrize("number", [q.number for q in all_queries()])
def test_tpch_cells_agree(tpch_cells, number):
    """The query under UA, UAPenc and UAPmix: its plan and the minimal
    extension ``assign`` chose; between them every condition refuses."""
    schema, settings = tpch_cells
    (query,) = [q for q in all_queries() if q.number == number]
    for setting in settings.values():
        plan = query.plan(schema)
        refused = assert_agreement(plan, setting.policy,
                                   setting.subject_names)
        try:
            result = assign(plan, setting.policy, setting.subject_names,
                            PriceList.from_subjects(setting.subjects),
                            user=setting.user, owners=setting.owners)
        except ReproError:
            continue
        refused += assert_agreement(result.extended.plan, setting.policy,
                                    setting.subject_names)
        assert refused, setting.name
