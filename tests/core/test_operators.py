"""Profile-propagation rules of every operator (Figure 2).

Each test reproduces the corresponding example column of Figure 2 of the
paper, using its exact attribute sets.
"""

import pytest

from repro.core.equivalence import EquivalenceClasses
from repro.core.operators import (
    Aggregate,
    AggregateFunction,
    BaseRelationNode,
    CartesianProduct,
    Decrypt,
    Encrypt,
    GroupBy,
    Join,
    Projection,
    Selection,
    Udf,
)
from repro.core.predicates import (
    AttributeComparisonPredicate,
    AttributeValuePredicate,
    ComparisonOp,
    EncryptedCapability,
    equals,
)
from repro.core.profile import RelationProfile
from repro.core.schema import Relation
from repro.exceptions import OperationRequirementError, PlanError


def profile(vp="", ve="", ip="", ie="", eq=()):
    return RelationProfile(
        visible_plaintext=frozenset(vp),
        visible_encrypted=frozenset(ve),
        implicit_plaintext=frozenset(ip),
        implicit_encrypted=frozenset(ie),
        equivalences=EquivalenceClasses.of(*eq),
    )


LEAF = BaseRelationNode(Relation("R1", list("BDTPSC")))


class TestProjection:
    def test_figure2_example(self):
        # π_{B,P} over [v: BDTP, i: D, ≃: SC] → [v: BP, i: D, ≃: SC]
        operand = profile(vp="BDTP", ip="D", eq=({"S", "C"},))
        result = Projection(LEAF, ["B", "P"]).output_profile(operand)
        assert result == profile(vp="BP", ip="D", eq=({"S", "C"},))

    def test_splits_encrypted_and_plaintext(self):
        operand = profile(vp="A", ve="B")
        result = Projection(LEAF, ["A", "B"]).output_profile(operand)
        assert result.visible_plaintext == frozenset("A")
        assert result.visible_encrypted == frozenset("B")

    def test_rejects_unknown_attribute(self):
        with pytest.raises(OperationRequirementError):
            Projection(LEAF, ["Z"]).output_profile(profile(vp="A"))

    def test_rejects_empty(self):
        with pytest.raises(PlanError):
            Projection(LEAF, [])


class TestSelection:
    def test_value_condition_adds_implicit(self):
        # σ_{D='stroke'} over [v: BDTP, i: -, ≃: SC] adds D to implicit.
        operand = profile(vp="BDTP", eq=({"S", "C"},))
        node = Selection(LEAF, AttributeValuePredicate(
            "D", ComparisonOp.EQ, "stroke"))
        result = node.output_profile(operand)
        assert result == profile(vp="BDTP", ip="D", eq=({"S", "C"},))

    def test_value_condition_on_encrypted_attr(self):
        operand = profile(ve="D", vp="T")
        node = Selection(LEAF, AttributeValuePredicate(
            "D", ComparisonOp.EQ, "x"))
        result = node.output_profile(operand)
        assert result.implicit_encrypted == frozenset("D")

    def test_comparison_condition_adds_equivalence(self):
        # σ_{S=C} over [v: SCTP, i: D, ≃: -] adds {S,C} (Fig. 2 example).
        operand = profile(vp="SCTP", ip="D")
        node = Selection(LEAF, AttributeComparisonPredicate(
            "S", ComparisonOp.EQ, "C"))
        result = node.output_profile(operand)
        assert result == profile(vp="SCTP", ip="D", eq=({"S", "C"},))

    def test_comparison_requires_uniform_form(self):
        operand = profile(vp="S", ve="C")
        node = Selection(LEAF, AttributeComparisonPredicate(
            "S", ComparisonOp.EQ, "C"))
        with pytest.raises(OperationRequirementError):
            node.output_profile(operand)

    def test_introspection(self):
        node = Selection(LEAF, AttributeValuePredicate(
            "D", ComparisonOp.GT, 1))
        assert node.implicit_introduced() == frozenset("D")
        assert node.demands() == (("D", EncryptedCapability.ORDER),)
        assert node.operand_attributes() == frozenset("D")
        assert node.uniform_groups() == ()


class TestCartesianProduct:
    def test_figure2_example(self):
        left = profile(vp="SCP", eq=({"S", "C"},))
        right = profile(vp="B", ip="DT")
        node = CartesianProduct(LEAF, BaseRelationNode(
            Relation("R2", ["x"])))
        result = node.output_profile(left, right)
        assert result == profile(vp="SCPB", ip="DT", eq=({"S", "C"},))

    def test_rejects_overlapping_schemas(self):
        node = CartesianProduct(LEAF, LEAF.with_children(()))
        with pytest.raises(PlanError):
            node.output_profile(profile(vp="A"), profile(vp="AB"))


class TestJoin:
    def test_figure2_example(self):
        # ⋈_{D=C}: [v: DB] × [v: C, i: P, ≃: SC] → ≃ gains {C,D}.
        left = profile(vp="DB")
        right = profile(vp="C", ip="P", eq=({"S", "C"},))
        node = Join(LEAF, BaseRelationNode(Relation("R2", ["x"])),
                    equals("D", "C"))
        result = node.output_profile(left, right)
        assert result.visible_plaintext == frozenset("DCB")
        assert result.implicit_plaintext == frozenset("P")
        assert result.equivalences.class_of("D") == frozenset("SCD")

    def test_uniform_form_required(self):
        left = profile(vp="S")
        right = profile(ve="C")
        node = Join(LEAF, BaseRelationNode(Relation("R2", ["x"])),
                    equals("S", "C"))
        with pytest.raises(OperationRequirementError):
            node.output_profile(left, right)

    def test_both_encrypted_allowed(self):
        left = profile(ve="S")
        right = profile(ve="C")
        node = Join(LEAF, BaseRelationNode(Relation("R2", ["x"])),
                    equals("S", "C"))
        result = node.output_profile(left, right)
        assert result.equivalences.are_equivalent("S", "C")

    def test_rejects_overlapping_schemas(self):
        node = Join(LEAF, LEAF.with_children(()), equals("A", "B"))
        with pytest.raises(PlanError):
            node.output_profile(profile(vp="A"), profile(vp="AB"))

    def test_declares_what_it_reads(self):
        node = Join(LEAF, LEAF.with_children(()), equals("D", "C"))
        assert sorted(node.demands()) == [
            ("C", EncryptedCapability.EQUALITY),
            ("D", EncryptedCapability.EQUALITY)]
        assert node.uniform_groups() == (frozenset("CD"),)

    def test_join_requires_comparison_conditions(self):
        with pytest.raises(PlanError):
            Join(LEAF, BaseRelationNode(Relation("R2", ["x"])),
                 AttributeValuePredicate("S", ComparisonOp.EQ, 1))


class TestGroupBy:
    def test_figure2_example(self):
        # γ_{T, avg(P)} over [v: DTPSC, i: D, ≃: SC]
        #   → [v: TP, i: DT, ≃: SC]
        operand = profile(vp="DTPSC", ip="D", eq=({"S", "C"},))
        node = GroupBy(LEAF, ["T"], Aggregate(AggregateFunction.AVG, "P"))
        result = node.output_profile(operand)
        assert result == profile(vp="TP", ip="DT", eq=({"S", "C"},))

    def test_declares_what_it_reads(self):
        node = GroupBy(LEAF, ["T"], [
            Aggregate(AggregateFunction.AVG, "P"),
            Aggregate(AggregateFunction.MAX, "S", alias="top"),
            Aggregate(AggregateFunction.COUNT, alias="n")])
        assert node.demands() == (
            ("T", EncryptedCapability.EQUALITY),
            ("P", EncryptedCapability.ADDITION),
            ("S", EncryptedCapability.ORDER))
        assert node.uniform_groups() == ()

    def test_grouping_on_encrypted_attribute(self):
        operand = profile(ve="T", vp="P")
        node = GroupBy(LEAF, ["T"], Aggregate(AggregateFunction.SUM, "P"))
        result = node.output_profile(operand)
        assert result.visible_encrypted == frozenset("T")
        assert result.implicit_encrypted == frozenset("T")
        assert result.visible_plaintext == frozenset("P")

    def test_count_star_keeps_only_grouping(self):
        operand = profile(vp="TP")
        node = GroupBy(LEAF, ["T"], Aggregate(
            AggregateFunction.COUNT, alias="n"))
        result = node.output_profile(operand)
        assert result.visible_plaintext == frozenset({"T", "n"})
        # Counts are fresh plaintext values, not linked to any source.
        assert not result.equivalences

    def test_alias_joins_source_equivalence(self):
        operand = profile(vp="TP")
        node = GroupBy(LEAF, ["T"], Aggregate(
            AggregateFunction.SUM, "P", alias="total"))
        result = node.output_profile(operand)
        assert result.visible_plaintext == frozenset({"T", "total"})
        assert result.equivalences.are_equivalent("P", "total")

    def test_aliased_aggregate_over_encrypted_source(self):
        operand = profile(ve="P", vp="T")
        node = GroupBy(LEAF, ["T"], Aggregate(
            AggregateFunction.SUM, "P", alias="total"))
        result = node.output_profile(operand)
        assert "total" in result.visible_encrypted

    def test_duplicate_outputs_rejected(self):
        with pytest.raises(PlanError):
            GroupBy(LEAF, ["T"], [
                Aggregate(AggregateFunction.SUM, "P"),
                Aggregate(AggregateFunction.AVG, "P"),
            ])

    def test_aggregate_of_grouping_attr_rejected(self):
        with pytest.raises(PlanError):
            GroupBy(LEAF, ["T"], Aggregate(AggregateFunction.SUM, "T"))

    def test_count_star_needs_alias(self):
        with pytest.raises(PlanError):
            Aggregate(AggregateFunction.COUNT)


class TestUdf:
    def test_figure2_example(self):
        # µ_{SB,S} over [v: SBCT, i: D, ≃: SC] → [v: SCT, i: D, ≃: SBC]
        operand = profile(vp="SBCT", ip="D", eq=({"S", "C"},))
        node = Udf(LEAF, ["S", "B"], "S")
        result = node.output_profile(operand)
        assert result.visible_plaintext == frozenset("SCT")
        assert result.implicit_plaintext == frozenset("D")
        assert result.equivalences.class_of("S") == frozenset("SBC")

    def test_inputs_must_share_form(self):
        operand = profile(vp="S", ve="B")
        node = Udf(LEAF, ["S", "B"], "S")
        with pytest.raises(OperationRequirementError):
            node.output_profile(operand)

    def test_declares_what_it_reads(self):
        plain_only = Udf(LEAF, ["S", "B"], "S")
        assert sorted(plain_only.demands()) == [
            ("B", EncryptedCapability.NONE), ("S", EncryptedCapability.NONE)]
        capable = Udf(LEAF, ["S", "B"], "S", encrypted_capable=True)
        assert {c for _, c in capable.demands()} \
            == {EncryptedCapability.EQUALITY}
        assert capable.uniform_groups() == (frozenset("SB"),)

    def test_output_must_be_an_input(self):
        with pytest.raises(PlanError):
            Udf(LEAF, ["S", "B"], "Z")


class TestEncryptDecrypt:
    def test_encrypt_rule(self):
        # Fig. 2: encrypt T over [v: SBT, i: D] → T moves to encrypted.
        operand = profile(vp="SBT", ip="D")
        result = Encrypt(LEAF, ["T"]).output_profile(operand)
        assert result == profile(vp="SB", ve="T", ip="D")

    def test_decrypt_rule(self):
        operand = profile(vp="SB", ve="T", ip="D")
        result = Decrypt(LEAF, ["T"]).output_profile(operand)
        assert result == profile(vp="SBT", ip="D")

    def test_read_nothing(self):
        # Encryption moves values between forms; it computes on none.
        for node in (Encrypt(LEAF, ["T"]), Decrypt(LEAF, ["T"])):
            assert node.demands() == ()
            assert node.operand_attributes() == frozenset()
            assert node.uniform_groups() == ()

    def test_empty_sets_rejected(self):
        with pytest.raises(PlanError):
            Encrypt(LEAF, [])
        with pytest.raises(PlanError):
            Decrypt(LEAF, [])


class TestBaseRelation:
    def test_projected_leaf(self):
        relation = Relation("Hosp", ["S", "B", "D", "T"])
        leaf = BaseRelationNode(relation, ["S", "D", "T"])
        assert leaf.output_profile() == profile(vp="SDT")
        assert "π[S,D,T]" in leaf.label()

    def test_unknown_projection_rejected(self):
        relation = Relation("Hosp", ["S"])
        with pytest.raises(PlanError):
            BaseRelationNode(relation, ["Z"])
