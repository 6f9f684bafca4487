"""Unit tests for plan trees, traversal, rewriting, and predicates."""

import pytest

from repro.core.operators import (
    BaseRelationNode,
    Decrypt,
    Encrypt,
    Selection,
)
from repro.core.plan import QueryPlan
from repro.core.predicates import (
    AttributeComparisonPredicate,
    AttributeValuePredicate,
    ComparisonOp,
    Conjunction,
    EncryptedCapability,
    equals,
    value_equals,
)
from repro.core.schema import Relation
from repro.exceptions import PlanError


class TestPredicates:
    def test_value_predicate_attributes_and_capability(self):
        predicate = AttributeValuePredicate("D", ComparisonOp.EQ, "x")
        assert predicate.attributes() == frozenset("D")
        assert predicate.required_capability() is \
            EncryptedCapability.EQUALITY

    def test_range_needs_order(self):
        predicate = AttributeValuePredicate("P", ComparisonOp.GT, 100)
        assert predicate.required_capability() is EncryptedCapability.ORDER

    def test_like_needs_plaintext(self):
        predicate = AttributeValuePredicate("N", ComparisonOp.LIKE, "%x%")
        assert predicate.required_capability() is EncryptedCapability.NONE

    def test_comparison_rejects_self_compare(self):
        with pytest.raises(PlanError):
            AttributeComparisonPredicate("A", ComparisonOp.EQ, "A")

    def test_comparison_two_arg_form(self):
        predicate = AttributeComparisonPredicate("A", "B")
        assert predicate.op is ComparisonOp.EQ
        assert predicate.attributes() == frozenset("AB")

    def test_conjunction_flattens(self):
        inner = Conjunction([value_equals("A", 1), equals("B", "C")])
        outer = Conjunction([inner, value_equals("D", 2)])
        assert len(list(outer.basic_conditions())) == 3
        assert outer.attributes() == frozenset("ABCD")

    def test_conjunction_capability_is_strongest(self):
        conj = Conjunction([
            value_equals("A", 1),
            AttributeValuePredicate("B", ComparisonOp.GT, 2),
        ])
        assert conj.required_capability() is EncryptedCapability.ORDER
        with_like = Conjunction([
            conj, AttributeValuePredicate("C", ComparisonOp.LIKE, "x%"),
        ])
        assert with_like.required_capability() is EncryptedCapability.NONE

    def test_empty_conjunction_rejected(self):
        with pytest.raises(PlanError):
            Conjunction([])

    def test_str_rendering(self):
        assert str(value_equals("D", "stroke")) == "D='stroke'"
        assert str(equals("S", "C")) == "S=C"
        assert str(AttributeValuePredicate(
            "P", ComparisonOp.IN, (1, 2))) == "P in (1, 2)"


class TestQueryPlan:
    def build(self):
        relation = Relation("R", ["a", "b"])
        leaf = BaseRelationNode(relation)
        select = Selection(leaf, value_equals("a", 1))
        return QueryPlan(select), leaf, select

    def test_postorder_children_first(self):
        plan, leaf, select = self.build()
        order = list(plan.postorder())
        assert order[0] is leaf and order[-1] is select

    def test_parent_and_ancestors(self):
        plan, leaf, select = self.build()
        assert plan.parent(leaf) is select
        assert plan.parent(select) is None
        assert list(plan.ancestors(leaf)) == [select]
        assert plan.is_descendant(leaf, select)
        assert not plan.is_descendant(select, leaf)

    def test_foreign_node_rejected(self):
        plan, _, _ = self.build()
        stranger = BaseRelationNode(Relation("Z", ["z"]))
        with pytest.raises(PlanError):
            plan.parent(stranger)

    def test_shared_nodes_rejected(self):
        relation = Relation("R", ["a"])
        leaf = BaseRelationNode(relation)
        from repro.core.operators import CartesianProduct

        with pytest.raises(PlanError):
            QueryPlan(CartesianProduct(leaf, leaf))

    def test_profiles_cached_and_identity_keyed(self):
        plan, leaf, select = self.build()
        profiles = plan.profiles()
        assert profiles[leaf].visible_plaintext == frozenset({"a", "b"})
        assert profiles[select].implicit_plaintext == frozenset({"a"})
        assert plan.profiles() is not None  # cached path

    def test_operations_and_leaves(self):
        plan, leaf, select = self.build()
        assert plan.operations() == (select,)
        assert plan.leaves() == (leaf,)

    def test_strip_crypto_nodes(self):
        relation = Relation("R", ["a", "b"])
        leaf = BaseRelationNode(relation)
        wrapped = Decrypt(Encrypt(leaf, ["a"]), ["a"])
        select = Selection(wrapped, value_equals("a", 1))
        stripped = QueryPlan(select).strip_crypto_nodes()
        labels = [n.label() for n in stripped.postorder()]
        assert not any("enc" in l or "dec" in l for l in labels)
        assert len(stripped) == 2

    def test_rewrite_rebuilds_bottom_up(self):
        plan, leaf, select = self.build()
        rebuilt = plan.rewrite(
            lambda node, children: node.with_children(children)
        )
        assert len(rebuilt) == len(plan)
        assert rebuilt.root is not plan.root

    def test_pretty_includes_annotations(self):
        plan, leaf, select = self.build()
        text = plan.pretty({select: "note!"})
        assert "note!" in text

    def test_describe_profiles_renders_tags(self):
        plan, _, _ = self.build()
        assert "v:" in plan.describe_profiles()


class TestEqualLookingNodes:
    """Nodes are their own keys: two operations with the same label in
    one plan keep their own parent, profile and rewrite."""

    def build(self):
        relation = Relation("R", ["a", "b"], cardinality=100)
        inner = Selection(BaseRelationNode(relation), value_equals("a", 1))
        outer = Selection(inner, value_equals("a", 1))
        return QueryPlan(outer), inner, outer

    def test_each_keeps_its_own_parent_and_profile(self):
        plan, inner, outer = self.build()
        assert inner.label() == outer.label()
        assert plan.parent(inner) is outer
        assert plan.parent(outer) is None
        assert list(plan.profiles()) == list(plan.nodes())
        assert len(plan.profiles()) == 3

    def test_rewrite_replaces_only_the_node_it_is_given(self):
        plan, inner, _outer = self.build()

        def transform(node, children):
            if node is inner:
                return Selection(children[0], value_equals("a", 2))
            return node.with_children(children)

        rewritten = plan.rewrite(transform)
        assert str(rewritten.root.predicate) == str(value_equals("a", 1))
        assert str(rewritten.root.children[0].predicate) == \
            str(value_equals("a", 2))
