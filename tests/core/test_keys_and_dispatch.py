"""Key establishment (Definition 6.1) and sub-query dispatch (Figure 8)."""

from types import SimpleNamespace

import pytest

from repro.core.dispatch import _RenderState, dispatch
from repro.core.extension import minimally_extend
from repro.core.keys import (
    QueryKey,
    cluster_encrypted_attributes,
    establish_keys,
    schemes_for_extended_plan,
)
from repro.core.operators import BaseRelationNode, Encrypt, Selection
from repro.core.plan import QueryPlan
from repro.core.predicates import (
    AttributeValuePredicate,
    ComparisonOp,
    Conjunction,
)
from repro.core.requirements import EncryptionScheme
from repro.core.schema import Relation
from repro.exceptions import DispatchError, KeyManagementError


class TestClustering:
    def test_equivalent_attrs_share_a_cluster(self):
        clusters = cluster_encrypted_attributes(
            {"S", "C", "P"}, [frozenset({"S", "C"})])
        assert frozenset({"S", "C"}) in clusters
        assert frozenset({"P"}) in clusters

    def test_partial_overlap_keeps_only_encrypted(self):
        clusters = cluster_encrypted_attributes(
            {"S"}, [frozenset({"S", "C"})])
        assert clusters == (frozenset({"S"}),)

    def test_no_equivalences_all_singletons(self):
        clusters = cluster_encrypted_attributes({"A", "B"}, [])
        assert set(clusters) == {frozenset({"A"}), frozenset({"B"})}


class TestFigure7aKeys:
    def test_key_set_and_distribution(self, example):
        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7a(),
            owners=example.owners,
        )
        keys = establish_keys(extended, example.policy)
        by_name = {k.name: k for k in keys.keys}
        assert set(by_name) == {"kCS", "kP"}
        # Figure 8: kSC goes to H and I, kP to I and Y.
        assert keys.holders(by_name["kCS"]) == frozenset({"H", "I"})
        assert keys.holders(by_name["kP"]) == frozenset({"I", "Y"})

    def test_schemes_match_operations(self, example):
        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7a(),
            owners=example.owners,
        )
        keys = establish_keys(extended, example.policy)
        assert keys.key_for("S").scheme is EncryptionScheme.DETERMINISTIC
        assert keys.key_for("P").scheme is EncryptionScheme.PAILLIER

    def test_key_for_unknown_attribute(self, example):
        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7a(),
            owners=example.owners,
        )
        keys = establish_keys(extended, example.policy)
        with pytest.raises(KeyManagementError):
            keys.key_for("Z")

    def test_keys_for_subject(self, example):
        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7a(),
            owners=example.owners,
        )
        keys = establish_keys(extended, example.policy)
        assert {k.name for k in keys.keys_for_subject("I")} == {"kCS", "kP"}
        assert not keys.keys_for_subject("X")


class TestSchemesForExtendedPlan:
    def test_transit_only_attributes_get_randomized(self, example):
        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7a(),
            owners=example.owners,
        )
        schemes = schemes_for_extended_plan(extended)
        # S and C are compared encrypted at X: deterministic.
        assert schemes["S"] is EncryptionScheme.DETERMINISTIC
        # P is summed encrypted at X: Paillier.
        assert schemes["P"] is EncryptionScheme.PAILLIER

    def test_note2_downgrades_key_holder_demands(self, example):
        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7b(),
            owners=example.owners,
        )
        # Without note 2: σ(D='stroke') on encrypted D demands equality.
        plain = schemes_for_extended_plan(extended)
        assert plain["D"] is EncryptionScheme.DETERMINISTIC
        # With note 2: H evaluates D on plaintext (it holds kD), so D is
        # only in transit — randomized suffices.
        with_note2 = schemes_for_extended_plan(
            extended, policy=example.policy)
        assert with_note2["D"] is EncryptionScheme.RANDOMIZED


class TestQueryKey:
    def test_name_and_covers(self):
        key = QueryKey(frozenset({"S", "C"}))
        assert key.name == "kCS"
        assert key.covers("S") and not key.covers("P")


class TestDispatch:
    def make(self, example, assignment):
        extended = minimally_extend(
            example.plan, example.policy, assignment,
            owners=example.owners,
        )
        keys = establish_keys(extended, example.policy)
        return dispatch(extended, keys, owners=example.owners, user="U"), \
            extended, keys

    def test_figure8_fragments(self, example):
        plan, _, _ = self.make(example, example.assignment_7a())
        assert set(plan.fragments) == {"reqY", "reqX", "reqH", "reqI"}
        order = [f.subject for f in plan.in_call_order()]
        assert order == ["Y", "X", "H", "I"]

    def test_figure8_key_routing(self, example):
        plan, _, _ = self.make(example, example.assignment_7a())
        assert plan.fragment("reqH").key_names == ("kCS",)
        assert plan.fragment("reqI").key_names == ("kCS", "kP")
        assert plan.fragment("reqX").key_names == ()
        assert plan.fragment("reqY").key_names == ("kP",)

    def test_figure8_query_texts(self, example):
        plan, _, _ = self.make(example, example.assignment_7a())
        h_text = plan.fragment("reqH").text
        assert "encrypt(S,kCS)" in h_text
        assert "where D='stroke'" in h_text
        x_text = plan.fragment("reqX").text
        assert "S^k=C^k" in x_text
        assert "avg(P^k)" in x_text
        assert "group by T" in x_text
        y_text = plan.fragment("reqY").text
        assert "decrypt(P^k,kP)" in y_text
        assert "where P>100" in y_text
        i_text = plan.fragment("reqI").text
        assert "encrypt(C,kCS)" in i_text and "encrypt(P,kP)" in i_text

    def test_7b_condition_dispatched_encrypted(self, example):
        plan, _, _ = self.make(example, example.assignment_7b())
        h_text = plan.fragment("reqH").text
        # The condition is formulated on encrypted values (note 2).
        assert "D^k='stroke'" in h_text

    def test_marker_is_placed_on_whole_identifiers(self):
        """``key`` encrypted and ``okey`` not: only ``key`` is marked."""
        relation = Relation("R", ["key", "okey"], cardinality=4)
        selection = Selection(
            Encrypt(BaseRelationNode(relation), ["key"]),
            Conjunction([
                AttributeValuePredicate("okey", ComparisonOp.EQ, 1),
                AttributeValuePredicate("key", ComparisonOp.EQ, 2)]))
        state = _RenderState(
            SimpleNamespace(requests={}), None,
            SimpleNamespace(plan=QueryPlan(selection)))
        assert state._render_predicate(selection) == "okey=1 AND key^k=2"

    def test_unknown_fragment_raises(self, example):
        plan, _, _ = self.make(example, example.assignment_7a())
        with pytest.raises(DispatchError):
            plan.fragment("reqZZZ")

    def test_describe_lists_all_fragments(self, example):
        plan, _, _ = self.make(example, example.assignment_7a())
        text = plan.describe()
        for subject in "YXHI":
            assert subject in text
