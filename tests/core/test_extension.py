"""Minimally extended plans (Definition 5.4) — Figure 7 and edge cases."""

import pytest

from repro.core.authorization import Authorization, Policy
from repro.core.extension import minimally_extend
from repro.core.keys import establish_keys
from repro.core.operators import (
    BaseRelationNode,
    Decrypt,
    Encrypt,
    Join,
    Selection,
)
from repro.core.plan import QueryPlan
from repro.core.predicates import AttributeValuePredicate, ComparisonOp, equals
from repro.core.schema import Relation, Schema
from repro.core.visibility import verify_assignment
from repro.crypto.keymanager import DistributedKeys
from repro.engine import Executor, Table
from repro.exceptions import PlanError, UnauthorizedError


class TestFigure7a:
    def test_encrypted_attributes(self, example):
        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7a(),
            owners=example.owners,
        )
        assert extended.encrypted_attributes == frozenset("SCP")

    def test_source_encryption(self, example):
        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7a(),
            owners=example.owners,
        )
        # I encrypts C and P of Ins at the source (Figure 7a).
        assert extended.source_encryption["Ins"] == frozenset("CP")
        # Hosp's S is encrypted after the selection, not at the leaf.
        assert "Hosp" not in extended.source_encryption

    def test_assignment_is_authorized(self, example):
        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7a(),
            owners=example.owners,
        )
        assert verify_assignment(
            extended.plan, example.policy, extended.assignment)

    def test_p_decrypted_before_having(self, example):
        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7a(),
            owners=example.owners,
        )
        decrypts = extended.decryption_operations()
        assert any(d.attributes == frozenset("P") for d in decrypts)
        # The decrypt is assigned to Y (the having's assignee).
        for node in decrypts:
            if node.attributes == frozenset("P"):
                assert extended.assignee(node) == "Y"


class TestFigure7b:
    def test_encrypted_attributes(self, example):
        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7b(),
            owners=example.owners,
        )
        assert extended.encrypted_attributes == frozenset("DP")

    def test_d_encrypted_below_selection(self, example):
        # "D is encrypted before executing the selection ... so not to
        # leave an implicit plaintext trace" (Fig. 7b note).
        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7b(),
            owners=example.owners,
        )
        for node in extended.plan.postorder():
            if isinstance(node, Encrypt) and "D" in node.attributes:
                # The encrypt sits directly on the Hosp leaf.
                assert node.left.is_leaf
                assert extended.assignee(node) == "H"
                break
        else:
            pytest.fail("no encryption of D found")

    def test_selection_profile_shows_encrypted_implicit_d(self, example):
        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7b(),
            owners=example.owners,
        )
        profiles = extended.plan.profiles()
        for node in extended.plan.postorder():
            if node.label().startswith("σ[D="):
                assert "D" in profiles[node].implicit_encrypted
                assert "D" not in profiles[node].implicit_plaintext
                break
        else:
            pytest.fail("selection not found")


class TestGuards:
    def test_rejects_pre_extended_plans(self, example):
        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7a(),
            owners=example.owners,
        )
        with pytest.raises(PlanError):
            minimally_extend(extended.plan, example.policy,
                             extended.assignment)

    def test_rejects_incomplete_assignment(self, example):
        with pytest.raises(PlanError):
            minimally_extend(example.plan, example.policy,
                             {example.join: "X"})

    def test_rejects_non_candidate_assignment(self, example):
        # I has non-uniform visibility over {S, C}: never a candidate
        # for the join; the extension must fail verification.
        bad = dict(example.assignment_7a())
        bad[example.join] = "I"
        with pytest.raises(UnauthorizedError):
            minimally_extend(example.plan, example.policy, bad,
                             owners=example.owners)

    def test_deliver_to_decrypts_root(self, example):
        # Assign everything processable to X (encrypted end to end) and
        # deliver to U: the final result must be decrypted for U.
        assignment = {
            example.selection: "X",
            example.join: "X",
            example.group_by: "X",
            example.having: "Y",
        }
        extended = minimally_extend(
            example.plan, example.policy, assignment,
            owners=example.owners, deliver_to="U",
        )
        root_profile = extended.plan.root_profile()
        assert not root_profile.visible_encrypted

    def test_letter_of_definition_mode(self, example):
        # With opportunistic decryption off, only Ap-driven decrypts
        # appear (the letter of Def. 5.4(i)).
        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7a(),
            owners=example.owners, opportunistic_decryption=False,
        )
        decrypts = extended.decryption_operations()
        assert all(d.attributes == frozenset("P") for d in decrypts)


class TestHarmonisation:
    def test_mixed_comparison_resolved(self, random_scenario):
        """Extensions of arbitrary candidate assignments always verify."""
        from repro.core.candidates import compute_candidates

        scenario = random_scenario
        candidates = compute_candidates(
            scenario.plan, scenario.policy, scenario.subjects)
        assignment = {}
        for node in scenario.plan.operations():
            names = candidates[node]
            if not names:
                pytest.skip("scenario has an unassignable operation")
            assignment[node] = sorted(names)[0]
        extended = minimally_extend(
            scenario.plan, scenario.policy, assignment)
        assert verify_assignment(
            extended.plan, scenario.policy, extended.assignment)

    @pytest.mark.parametrize("opportunistic", (True, False))
    def test_an_operand_sealed_below_is_opened_for_its_comparison(
            self, opportunistic):
        """``σ[c>1](R) ⋈[a=b] T``: P1 runs σ and may see ``a`` only
        encrypted, so ``a`` reaches the join sealed and ``b`` plain, at
        P2, who may read both.  With opportunistic decryption ``a`` is
        opened as an operand P2 may read; without it (the ablation's
        letter of Def. 5.4, where nothing requires ``a`` in plaintext)
        ``_harmonise_forms`` finds the comparison mixed and opens its
        encrypted side rather than seal ``b``.  Both give one plan, and
        it answers as the plaintext one."""
        schema = Schema()
        r = schema.add(Relation("R", ["a", "c"], cardinality=6))
        t = schema.add(Relation("T", ["b", "d"], cardinality=6))
        policy = Policy(schema)
        policy.grant_all([
            Authorization(r, "ac", "", "A"), Authorization(t, "bd", "", "B"),
            Authorization(r, "ac", "", "U"), Authorization(t, "bd", "", "U"),
            Authorization(r, "c", "a", "P1"),
            Authorization(r, "ac", "", "P2"),
            Authorization(t, "bd", "", "P2")])
        selection = Selection(BaseRelationNode(r), AttributeValuePredicate(
            "c", ComparisonOp.GT, 1))
        plan = QueryPlan(Join(selection, BaseRelationNode(t),
                              equals("a", "b")))
        extended = minimally_extend(
            plan, policy, {selection: "P1", plan.root: "P2"},
            owners={"R": "A", "T": "B"},
            opportunistic_decryption=opportunistic)
        opened, _ = extended.plan.root.children
        assert isinstance(opened, Decrypt) and opened.attributes == {"a"}
        assert extended.assignment[opened] == "P2"
        assert extended.encrypted_attributes == {"a"}
        tables = {"R": Table("R", ("a", "c"), [(n, n % 3) for n in range(6)]),
                  "T": Table("T", ("b", "d"), [(n, -n) for n in range(6)])}
        keys = DistributedKeys.from_assignment(
            establish_keys(extended, policy))
        assert Executor(tables, keystore=keys.master).execute(
            extended.plan).sorted_rows() \
            == Executor(tables).execute(plan).sorted_rows() != []
