"""Unit tests for the authorization model (§2) and Figure 4's views."""

import pytest

from repro.core.authorization import (
    ANY,
    Authorization,
    Policy,
    Subject,
    SubjectKind,
    SubjectView,
    holder_of,
    stands_in_for,
)
from repro.core.schema import Relation, Schema
from repro.exceptions import AuthorizationError
from repro.paper_example import FIGURE_4_VIEWS, build_running_example


class TestAuthorization:
    def test_p_and_e_must_be_disjoint(self):
        with pytest.raises(AuthorizationError):
            Authorization("R", ["a"], ["a"], "S")

    def test_relation_object_validates_attributes(self):
        relation = Relation("R", ["a", "b"])
        with pytest.raises(AuthorizationError):
            Authorization(relation, ["z"], [], "S")

    def test_describe_uses_paper_notation(self):
        rule = Authorization("Hosp", ["D", "T"], ["S"], "X")
        assert rule.describe() == "[DT,S]→X"

    def test_subject_object_accepted(self):
        rule = Authorization("R", ["a"], [], Subject("X"))
        assert rule.subject == "X"


class TestSubject:
    def test_reserved_any_rejected(self):
        with pytest.raises(AuthorizationError):
            Subject("any")

    @pytest.mark.parametrize("kind", SubjectKind)
    def test_stand_in_prefix_is_reserved(self, kind):
        """No real subject may carry the name of a stand-in for an
        unowned relation, whatever its role (and an authority least)."""
        with pytest.raises(AuthorizationError, match="reserved"):
            Subject("authority:x", kind)
        assert stands_in_for("authority:x") == "x"
        assert stands_in_for(holder_of("Ins", {"Hosp": "H"})) == "Ins"
        assert stands_in_for(holder_of("Hosp", {"Hosp": "H"})) is None

    def test_kinds(self):
        assert Subject("U", SubjectKind.USER).kind is SubjectKind.USER


class TestPolicy:
    def make_policy(self):
        schema = Schema()
        schema.add(Relation("R", ["a", "b"]))
        return Policy(schema), schema

    def test_grant_and_rule_lookup(self):
        policy, _ = self.make_policy()
        policy.grant(Authorization("R", ["a"], ["b"], "S"))
        rule = policy.rule_for("R", "S")
        assert rule is not None and rule.plaintext == frozenset({"a"})

    def test_duplicate_rule_rejected(self):
        policy, _ = self.make_policy()
        policy.grant(Authorization("R", ["a"], [], "S"))
        with pytest.raises(AuthorizationError):
            policy.grant(Authorization("R", ["b"], [], "S"))

    def test_unknown_relation_rejected(self):
        policy, _ = self.make_policy()
        with pytest.raises(AuthorizationError):
            policy.grant(Authorization("Zed", ["a"], [], "S"))

    def test_unknown_attribute_rejected(self):
        policy, _ = self.make_policy()
        with pytest.raises(AuthorizationError):
            policy.grant(Authorization("R", ["zzz"], [], "S"))

    def test_any_fallback(self):
        policy, _ = self.make_policy()
        policy.grant(Authorization("R", ["a"], [], ANY))
        rule = policy.rule_for("R", "stranger")
        assert rule is not None and rule.plaintext == frozenset({"a"})

    def test_explicit_rule_beats_any(self):
        policy, _ = self.make_policy()
        policy.grant(Authorization("R", ["a"], [], ANY))
        policy.grant(Authorization("R", [], ["a"], "S"))
        rule = policy.rule_for("R", "S")
        assert rule is not None and rule.encrypted == frozenset({"a"})

    def test_closed_policy_denies_by_default(self):
        policy, _ = self.make_policy()
        assert policy.rule_for("R", "S") is None
        view = policy.view("S")
        assert not view.plaintext and not view.encrypted

    def test_view_normalises_plaintext_over_encrypted(self):
        schema = Schema()
        schema.add(Relation("R1", ["a"]))
        schema.add(Relation("R2", ["b"]))
        policy = Policy(schema)
        policy.grant(Authorization("R1", ["a"], [], "S"))
        policy.grant(Authorization("R2", [], ["b"], "S"))
        view = policy.view("S")
        assert view.plaintext == frozenset({"a"})
        assert view.encrypted == frozenset({"b"})

    def test_subjects_and_relations(self):
        policy, _ = self.make_policy()
        policy.grant(Authorization("R", ["a"], [], "S"))
        policy.grant(Authorization("R", ["b"], [], ANY))
        assert policy.subjects() == frozenset({"S"})
        assert policy.relations() == frozenset({"R"})
        assert len(list(policy.rules())) == 2


class TestSubjectView:
    def test_plaintext_subsumes_encrypted(self):
        view = SubjectView("S", frozenset("A"), frozenset("B"))
        assert view.can_view_plaintext("A")
        assert view.can_view_encrypted("A")
        assert view.can_view_encrypted("B")
        assert not view.can_view_plaintext("B")
        assert not view.can_view_encrypted("Z")

    def test_describe(self):
        view = SubjectView("X", frozenset("DT"), frozenset("S"))
        assert view.describe() == "P_X=DT  E_X=S"


class TestFigure4:
    def test_overall_views_match_paper(self):
        example = build_running_example()
        for name, (plaintext, encrypted) in FIGURE_4_VIEWS.items():
            view = example.policy.view(name)
            assert view.plaintext == frozenset(plaintext), name
            assert view.encrypted == frozenset(encrypted), name

    def test_any_subject_views(self):
        example = build_running_example()
        view = example.policy.view("unknown-provider")
        assert view.plaintext == frozenset("DT")
        assert view.encrypted == frozenset("P")
