"""Property-based validation of the paper's theorems.

Each theorem is exercised over the six seeded random scenarios of
``conftest.RandomScenario`` (random schemas, plans with selections,
joins, group-bys, and random policies), plus targeted hypothesis tests
where the statement is local.
"""

import dataclasses
import itertools

import pytest

from repro.core.authorization import Subject
from repro.core.candidates import compute_candidates
from repro.core.extension import minimally_extend
from repro.core.keys import establish_keys
from repro.core.lineage import augment_view, derived_lineage
from repro.core.operators import Decrypt, Encrypt, GroupBy
from repro.core.plan import QueryPlan
from repro.core.visibility import verify_assignment
from repro.exceptions import (
    AuthorizationError,
    KeyManagementError,
    OperationRequirementError,
    ReproError,
    UnauthorizedError,
)

from oracles.authorization_literal import check_assignee


class TestTheorem31:
    """Profiles are monotone along the plan (Theorem 3.1).

    "Attributes can move from one component to another, but they cannot
    be removed from the profile": implicit content and equivalence
    relationships only grow going up the plan.  (Visible attributes that
    were never *used* may still be projected away — the paper's plans
    push such projections into the leaves, so they never arise there.)
    """

    def test_implicit_content_never_disappears(self, random_scenario):
        plan = random_scenario.plan
        profiles = plan.profiles()
        for node in plan.postorder():
            implicit_above = profiles[node].implicit \
                | profiles[node].equivalences.members()
            for descendant in plan.postorder():
                if plan.is_descendant(descendant, node):
                    below = profiles[descendant]
                    assert below.implicit \
                        | below.equivalences.members() <= implicit_above

    def test_used_attributes_survive_to_the_root(self, random_scenario):
        # Every attribute an operation reads is still accounted for in
        # the root profile (visible, implicit, or via equivalence).
        plan = random_scenario.plan
        root_universe = plan.root_profile().all_attributes() \
            | plan.root_profile().visible
        for node in plan.operations():
            for attribute in node.implicit_introduced():
                assert attribute in root_universe
            connected = [group for group in node.uniform_groups()
                         if len(group) > 1]
            if isinstance(node, GroupBy):
                connected += [{a.attribute, a.output_name}
                              for a in node.aggregates
                              if a.attribute not in (None, a.output_name)]
            for group in connected:
                assert group <= root_universe

    def test_equivalences_only_coarsen(self, random_scenario):
        plan = random_scenario.plan
        profiles = plan.profiles()
        for node in plan.postorder():
            for descendant in plan.postorder():
                if plan.is_descendant(descendant, node):
                    assert profiles[descendant].equivalences.refines(
                        profiles[node].equivalences)

    def test_holds_on_extended_plans_too(self, random_scenario):
        scenario = random_scenario
        candidates = compute_candidates(
            scenario.plan, scenario.policy, scenario.subjects)
        assignment = {}
        for node in scenario.plan.operations():
            if not candidates[node]:
                pytest.skip("unassignable scenario")
            assignment[node] = sorted(candidates[node])[0]
        extended = minimally_extend(
            scenario.plan, scenario.policy, assignment)
        profiles = extended.plan.profiles()
        for node in extended.plan.postorder():
            implicit_above = profiles[node].implicit \
                | profiles[node].equivalences.members()
            for descendant in extended.plan.postorder():
                if extended.plan.is_descendant(descendant, node):
                    below = profiles[descendant]
                    assert below.implicit \
                        | below.equivalences.members() <= implicit_above


class TestTheorem51:
    """Candidate sets shrink going up the plan (Theorem 5.1).

    The theorem's precondition — plaintext-required attributes leave an
    implicit trace — holds for the min-view computation of all our
    operators except plaintext udfs, which the generator does not emit.
    """

    def test_candidates_monotone_upward(self, random_scenario):
        scenario = random_scenario
        candidates = compute_candidates(
            scenario.plan, scenario.policy, scenario.subjects)
        for node in scenario.plan.operations():
            parent = scenario.plan.parent(node)
            if parent is None or parent.is_leaf:
                continue
            assert candidates[parent] <= candidates[node], (
                f"Λ({parent.label()}) ⊄ Λ({node.label()})"
            )

    def test_running_example_monotone(self, example):
        candidates = compute_candidates(
            example.plan, example.policy, example.subject_names)
        chain = [example.selection, example.join, example.group_by,
                 example.having]
        for lower, upper in zip(chain, chain[1:]):
            assert candidates[upper] <= candidates[lower]


class TestTheorem52:
    """Λ is sound and complete w.r.t. extended plans (Theorem 5.2)."""

    def test_completeness_every_candidate_assignment_extends(
            self, random_scenario):
        """(ii): any λ ∈ Λ becomes authorized after minimal extension."""
        scenario = random_scenario
        candidates = compute_candidates(
            scenario.plan, scenario.policy, scenario.subjects)
        operations = scenario.plan.operations()
        domains = []
        for node in operations:
            names = sorted(candidates[node])
            if not names:
                pytest.skip("unassignable scenario")
            domains.append(names[:2])  # bound the combinatorics
        for combo in itertools.product(*domains):
            assignment = dict(zip(operations, combo))
            extended = minimally_extend(
                scenario.plan, scenario.policy, assignment)
            assert verify_assignment(
                extended.plan, scenario.policy, extended.assignment)

    def test_soundness_authorized_assignments_are_candidates(
            self, random_scenario):
        """(i): authorized assignments of extended plans are in Λ.

        We build extended plans from candidate assignments and check that
        every subject authorized for an operation of the extended plan
        (over its actual operands/result) is also in Λ of the original
        operation.
        """
        scenario = random_scenario
        candidates = compute_candidates(
            scenario.plan, scenario.policy, scenario.subjects)
        assignment = {}
        for node in scenario.plan.operations():
            if not candidates[node]:
                pytest.skip("unassignable scenario")
            assignment[node] = sorted(candidates[node])[-1]
        extended = minimally_extend(
            scenario.plan, scenario.policy, assignment)
        profiles = extended.plan.profiles()
        lineage = derived_lineage(extended.plan)

        # Match original operations to their extended counterparts by
        # label (the extension preserves operator labels).
        extended_by_label = {}
        for node in extended.plan.postorder():
            if not node.is_leaf and not isinstance(node,
                                                   (Encrypt, Decrypt)):
                extended_by_label.setdefault(node.label(), node)
        for node in scenario.plan.operations():
            counterpart = extended_by_label.get(node.label())
            if counterpart is None:
                continue
            operand_profiles = [
                profiles[c] for c in counterpart.children
            ]
            for subject in scenario.subjects:
                view = augment_view(
                    scenario.policy.view(subject), lineage)
                authorized = check_assignee(
                    view, operand_profiles, profiles[counterpart],
                ).authorized
                # The plaintext requirements bound what extension may
                # encrypt; a subject authorized under *this* extension
                # must be a candidate.
                if authorized:
                    assert subject in candidates[node], (
                        f"{subject} authorized for {node.label()} "
                        f"but not in Λ"
                    )


class TestTheorem53:
    """Minimal extension is authorized and encrypts minimally."""

    def test_part_i_authorized(self, random_scenario):
        scenario = random_scenario
        candidates = compute_candidates(
            scenario.plan, scenario.policy, scenario.subjects)
        assignment = {}
        for node in scenario.plan.operations():
            if not candidates[node]:
                pytest.skip("unassignable scenario")
            assignment[node] = sorted(candidates[node])[0]
        extended = minimally_extend(
            scenario.plan, scenario.policy, assignment, verify=False)
        assert verify_assignment(
            extended.plan, scenario.policy, extended.assignment)

    def test_part_ii_minimality_on_running_example(self, example):
        """No strict subset of Fig. 7(a)'s {S, C, P} suffices.

        Exhaustively check that removing any single attribute from the
        encryption set makes the Figure 7(a) assignment unauthorized.
        """
        assignment = example.assignment_7a()
        extended = minimally_extend(
            example.plan, example.policy, assignment,
            owners=example.owners,
        )
        assert extended.encrypted_attributes == frozenset("SCP")
        for dropped in "SCP":
            # Removing any encrypted attribute yields a plan that is
            # either unexecutable (mixed representations) or
            # unauthorized — never a valid cheaper alternative.
            with pytest.raises(ReproError):
                reduced = _extend_without(extended, dropped)
                verify_assignment(reduced.plan, example.policy,
                                  reduced.assignment)

    def test_part_ii_minimality_on_generated_scenarios(
            self, random_scenario):
        """No attribute the minimal extension encrypts can be left in
        plaintext: without it (in every Encrypt and Decrypt) the plan
        is unauthorized or mixes representations an operation needs
        uniform."""
        scenario = random_scenario
        candidates = compute_candidates(
            scenario.plan, scenario.policy, scenario.subjects)
        assignment = {node: sorted(candidates[node])[0]
                      for node in scenario.plan.operations()}
        extended = minimally_extend(
            scenario.plan, scenario.policy, assignment)
        for dropped in sorted(extended.encrypted_attributes):
            with pytest.raises((UnauthorizedError,
                                OperationRequirementError)):
                reduced = _extend_without(extended, dropped)
                verify_assignment(reduced.plan, scenario.policy,
                                  reduced.assignment)


class TestStandInRule:
    """The stand-in for a relation nobody owns (``authority:<relation>``,
    spelled here on purpose) runs the source ``Encrypt`` of that
    relation and nothing else."""

    def test_only_its_own_source_encrypt_may_run_at_a_stand_in(
            self, random_scenario):
        scenario = random_scenario
        candidates = compute_candidates(
            scenario.plan, scenario.policy, scenario.subjects)
        assignment = {}
        for node in scenario.plan.operations():
            if not candidates[node]:
                pytest.skip("unassignable scenario")
            assignment[node] = sorted(candidates[node])[0]
        # Planned without ``owners``, as the suites above do: every
        # source encryption lands on a stand-in, and the plan verifies.
        extended = minimally_extend(
            scenario.plan, scenario.policy, assignment)
        stand_ins = {leaf.relation.name: f"authority:{leaf.relation.name}"
                     for leaf in scenario.plan.leaves()}
        for stand_in in stand_ins.values():
            with pytest.raises(AuthorizationError, match="reserved"):
                Subject(stand_in)
        for node in extended.plan.operations():
            own = None
            if isinstance(node, Encrypt) and node.left.is_leaf:
                own = stand_ins[node.left.relation.name]
                assert extended.assignee(node) == own
            for stand_in in stand_ins.values():
                moved = {**extended.assignment, node: stand_in}
                if stand_in == own:
                    assert verify_assignment(
                        extended.plan, scenario.policy, moved)
                    continue
                with pytest.raises(UnauthorizedError,
                                   match="stands in for"):
                    verify_assignment(extended.plan, scenario.policy, moved)
                if isinstance(node, (Encrypt, Decrypt)):
                    with pytest.raises(KeyManagementError,
                                       match="stands in for"):
                        establish_keys(
                            dataclasses.replace(extended, assignment=moved),
                            scenario.policy)


def _extend_without(extended, dropped: str):
    """``extended`` with ``dropped`` taken out of every Encrypt and
    Decrypt; a node left with nothing to do goes."""
    mapping = {}

    def strip(node, children):
        if isinstance(node, (Encrypt, Decrypt)) \
                and dropped in node.attributes:
            remaining = node.attributes - {dropped}
            if not remaining:
                return children[0]
            rebuilt = type(node)(children[0], remaining)
        else:
            rebuilt = node.with_children(children)
        mapping[node] = rebuilt
        return rebuilt

    return dataclasses.replace(
        extended, plan=extended.plan.rewrite(strip),
        assignment={mapping[node]: subject
                    for node, subject in extended.assignment.items()
                    if node in mapping},
        encrypted_attributes=extended.encrypted_attributes - {dropped})
