"""Operation requirements (Ap), scheme selection, and candidates (Def 5.2–5.3)."""

import pytest

from repro.core.authorization import Authorization, Policy
from repro.core.candidates import (
    compute_candidates,
    minimum_required_view,
    minimum_view_profiles,
    user_can_receive_result,
)
from repro.core.operators import (
    Aggregate,
    AggregateFunction,
    BaseRelationNode,
    GroupBy,
    Selection,
    Udf,
)
from repro.core.plan import QueryPlan
from repro.core.predicates import (
    AttributeValuePredicate,
    ComparisonOp,
    EncryptedCapability,
)
from repro.core.profile import RelationProfile
from repro.core.requirements import (
    EncryptionScheme,
    chosen_schemes,
    infer_plaintext_requirements,
    select_scheme,
)
from repro.core.schema import Relation, Schema
from repro.exceptions import NoCandidateError
from repro.paper_example import FIGURE_6_CANDIDATES, build_running_example
from helpers import make_udf_plan


class TestSelectScheme:
    def test_highest_protection_order(self):
        assert select_scheme(frozenset()) is EncryptionScheme.RANDOMIZED
        assert select_scheme(
            frozenset({EncryptedCapability.EQUALITY})
        ) is EncryptionScheme.DETERMINISTIC
        assert select_scheme(
            frozenset({EncryptedCapability.ORDER})
        ) is EncryptionScheme.OPE
        assert select_scheme(
            frozenset({EncryptedCapability.ADDITION})
        ) is EncryptionScheme.PAILLIER

    def test_incompatible_mix_returns_none(self):
        assert select_scheme(frozenset({
            EncryptedCapability.ADDITION, EncryptedCapability.ORDER,
        })) is None

    def test_none_capability_never_encryptable(self):
        assert select_scheme(
            frozenset({EncryptedCapability.NONE})) is None


class TestInferRequirements:
    def test_running_example_requirements(self, example):
        requirements = infer_plaintext_requirements(example.plan)
        assert requirements[example.selection] == frozenset()
        assert requirements[example.join] == frozenset()
        assert requirements[example.group_by] == frozenset()
        # avg(P) is Paillier-born: the range HAVING needs plaintext.
        assert requirements[example.having] == frozenset("P")

    def test_udf_inputs_need_plaintext(self):
        plan, _ = make_udf_plan()
        requirements = infer_plaintext_requirements(plan)
        (udf,) = plan.operations()
        assert requirements[udf] == frozenset({"m0", "m1"})

    def test_a_udf_keeps_its_inputs_in_one_form(self):
        # §3.2: a udf reads its inputs all plaintext or all encrypted.
        # A Paillier-born sum cannot serve an encrypted udf's equality
        # demand, so the grouping attribute it is computed with must be
        # plaintext too, although on its own it could stay encrypted.
        schema = Schema()
        relation = schema.add(Relation("R", ["g", "v"]))
        group_by = GroupBy(BaseRelationNode(relation), ["g"],
                           Aggregate(AggregateFunction.SUM, "v"))
        udf = Udf(group_by, ["v", "g"], "v", encrypted_capable=True)
        requirements = infer_plaintext_requirements(QueryPlan(udf))
        assert requirements[group_by] == frozenset()
        assert requirements[udf] == frozenset({"v", "g"})

    def test_like_forces_plaintext(self):
        schema = Schema()
        relation = schema.add(Relation("R", ["n", "v"]))
        plan = QueryPlan(Selection(
            BaseRelationNode(relation),
            AttributeValuePredicate("n", ComparisonOp.LIKE, "a%"),
        ))
        requirements = infer_plaintext_requirements(plan)
        assert requirements[plan.root] == frozenset("n")

    def test_range_selection_runs_encrypted_under_ope(self):
        # All four families are always available, so a range needs no
        # plaintext: it is evaluated over order-preserving ciphertext.
        schema = Schema()
        relation = schema.add(Relation("R", ["n"]))
        plan = QueryPlan(Selection(
            BaseRelationNode(relation),
            AttributeValuePredicate("n", ComparisonOp.GT, 5),
        ))
        assert infer_plaintext_requirements(plan)[plan.root] == frozenset()
        assert chosen_schemes(plan)["n"] is EncryptionScheme.OPE

    def test_inferred_once_per_plan(self, example, monkeypatch):
        from repro.core import requirements as requirements_module

        calls = []
        original = requirements_module._infer_requirements

        def counting(plan):
            calls.append(plan)
            return original(plan)

        monkeypatch.setattr(requirements_module, "_infer_requirements",
                            counting)
        first = infer_plaintext_requirements(example.plan)
        first[example.join] = frozenset("tampered")  # the caller's copy
        again = infer_plaintext_requirements(example.plan)
        assert again[example.join] == frozenset()
        assert len(calls) == 1
        # Another plan is not served from that entry.
        infer_plaintext_requirements(build_running_example().plan)
        assert len(calls) == 2
        assert infer_plaintext_requirements(example.plan) == again


class TestChosenSchemes:
    def test_running_example_schemes(self, example):
        schemes = chosen_schemes(example.plan)
        assert schemes["S"] is EncryptionScheme.DETERMINISTIC
        assert schemes["C"] is EncryptionScheme.DETERMINISTIC
        assert schemes["P"] is EncryptionScheme.PAILLIER
        # D is matched by an equality selection → deterministic.
        assert schemes["D"] is EncryptionScheme.DETERMINISTIC
        # B is never touched → randomized (highest protection).
        assert schemes["B"] is EncryptionScheme.RANDOMIZED


class TestMinimumRequiredView:
    def test_encrypts_all_but_needed(self):
        profile = RelationProfile(visible_plaintext=frozenset("SDT"))
        view = minimum_required_view(profile, {"D"})
        assert view.visible_plaintext == frozenset("D")
        assert view.visible_encrypted == frozenset("ST")

    def test_decrypts_needed_encrypted(self):
        profile = RelationProfile(
            visible_plaintext=frozenset("T"),
            visible_encrypted=frozenset("P"),
        )
        view = minimum_required_view(profile, {"P"})
        assert view.visible_plaintext == frozenset("P")
        assert view.visible_encrypted == frozenset("T")


class TestCandidates:
    def test_figure6_candidate_sets(self, example):
        candidates = compute_candidates(
            example.plan, example.policy, example.subject_names)
        nodes = {
            "selection": example.selection, "join": example.join,
            "group_by": example.group_by, "having": example.having,
        }
        for key, node in nodes.items():
            expected = frozenset(FIGURE_6_CANDIDATES[key])
            assert candidates[node] == expected, key

    def test_min_view_profiles_match_figure6(self, example):
        min_views = minimum_view_profiles(example.plan)
        join_profile = min_views.result_profile(example.join)
        # Fig. 6: join result is fully encrypted with ≃ SC and i: D.
        assert join_profile.visible_encrypted == frozenset("SDTCP")
        assert join_profile.implicit_encrypted == frozenset("D")
        assert join_profile.equivalences.are_equivalent("S", "C")

    def test_min_view_having_needs_plaintext_p(self, example):
        min_views = minimum_view_profiles(example.plan)
        (having_view,) = min_views.views_for(example.having)
        assert "P" in having_view.visible_plaintext

    def test_require_nonempty(self, example):
        # Restrict the subject universe to one that cannot run the join.
        candidates = compute_candidates(
            example.plan, example.policy, ["I"])
        with pytest.raises(NoCandidateError):
            candidates.require_nonempty()

    def test_user_can_receive_result(self, example):
        assert user_can_receive_result(example.plan, example.policy, "U")
        # Z lacks plaintext visibility on P: cannot take delivery.
        assert not user_can_receive_result(
            example.plan, example.policy, "Z")

    def test_equal_looking_operations_get_their_own_entries(self):
        schema = Schema()
        relation = schema.add(Relation("R", ["a", "b"], cardinality=100))
        policy = Policy(schema)
        policy.grant(Authorization(relation, ["a", "b"], [], "U"))
        policy.grant(Authorization(relation, [], ["a", "b"], "P"))
        inner = Selection(BaseRelationNode(relation),
                          AttributeValuePredicate("a", ComparisonOp.EQ, 1))
        outer = Selection(inner,
                          AttributeValuePredicate("a", ComparisonOp.EQ, 1))
        plan = QueryPlan(outer)
        assert inner.label() == outer.label()
        candidates = compute_candidates(plan, policy, ["U", "P"])
        assert [node for node, _ in candidates.items()] == [inner, outer]
        assert candidates[inner] == candidates[outer] == frozenset("UP")
        requirements = infer_plaintext_requirements(plan)
        assert set(requirements) == {inner, outer}

    def test_describe_mentions_candidates(self, example):
        candidates = compute_candidates(
            example.plan, example.policy, example.subject_names)
        assert "Λ=" in candidates.describe()


class TestGroupByInstanceTracking:
    def test_aggregate_output_capabilities_are_pinned(self):
        # sum output is Paillier-born: a later range demand must fall
        # back to plaintext (the running example's σ(avg(P)>100)).
        schema = Schema()
        relation = schema.add(Relation("R", ["g", "x"]))
        grouped = GroupBy(BaseRelationNode(relation), ["g"],
                          Aggregate(AggregateFunction.SUM, "x"))
        having = Selection(grouped, AttributeValuePredicate(
            "x", ComparisonOp.GT, 10))
        plan = QueryPlan(having)
        requirements = infer_plaintext_requirements(plan)
        assert requirements[having] == frozenset("x")

    def test_min_max_outputs_stay_comparable(self):
        schema = Schema()
        relation = schema.add(Relation("R", ["g", "x"]))
        grouped = GroupBy(BaseRelationNode(relation), ["g"],
                          Aggregate(AggregateFunction.MAX, "x"))
        having = Selection(grouped, AttributeValuePredicate(
            "x", ComparisonOp.GT, 10))
        plan = QueryPlan(having)
        requirements = infer_plaintext_requirements(plan)
        # OPE-born max output still supports ranges: no plaintext needed.
        assert requirements[having] == frozenset()
