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

    def test_view_is_memoised_until_an_effective_mutation(self):
        policy, _ = self.make_policy()
        policy.grant(Authorization("R", ["a"], ["b"], "S"))
        before = policy.view("S")
        assert policy.view(Subject("S")) is before
        # A no-op grant or revoke moves nothing, the memo included.
        policy.grant(Authorization("R", ["a"], ["b"], "S"))
        policy.revoke("R", "T")
        assert policy.view("S") is before

        policy.revoke("R", "S")
        after = policy.view("S")
        assert not after.plaintext and not after.encrypted
        # The ANY default reaches every subject without its own rule.
        policy.grant(Authorization("R", [], ["a"], ANY))
        assert policy.view("S").encrypted == frozenset({"a"})
        policy.grant(Authorization("R", ["b"], [], "S"))
        assert policy.view("S").plaintext == frozenset({"b"})
        assert not policy.view("S").encrypted

    def test_a_view_computed_across_a_revoke_is_not_served_after_it(self):
        """``view`` computes and stores under the lock ``revoke`` takes,
        so a revoke that lands mid-computation waits for the store and
        then clears it.  Unlocked, the reader would store the view it
        read before the revoke, after the revoke had cleared the memo."""
        import threading

        policy, _ = self.make_policy()
        policy.grant(Authorization("R", ["a"], ["b"], "S"))
        # A second rule keeps R's rule table alive through the revoke.
        policy.grant(Authorization("R", ["a"], [], "T"))
        entered, gate = threading.Event(), threading.Event()
        rule_for = policy.rule_for

        def gated_rule_for(relation, subject):
            rule = rule_for(relation, subject)
            entered.set()
            assert gate.wait(5)
            return rule

        policy.rule_for = gated_rule_for
        read: list = []
        reader = threading.Thread(
            target=lambda: read.append(policy.view("S")))
        reader.start()
        assert entered.wait(5)
        revoker = threading.Thread(target=policy.revoke, args=("R", "S"))
        revoker.start()
        revoker.join(0.2)  # blocked behind the reader while it holds the lock
        gate.set()
        reader.join(5)
        revoker.join(5)
        assert not reader.is_alive() and not revoker.is_alive()
        assert read[0].plaintext == frozenset({"a"})  # read before the revoke
        for _ in range(3):
            view = policy.view("S")
            assert not view.plaintext and not view.encrypted

    def test_views_stay_current_under_concurrent_churn(self):
        """Readers call ``view`` in a loop while one thread grants and
        revokes; the mutating thread must see each mutation's effect
        as soon as the mutation returns, and no reader may crash on a
        rule table that changed under it."""
        import sys
        import threading

        # Many relations make a view computation long enough for a
        # mutation to land inside it.
        schema = Schema()
        for index in range(100):
            schema.add(Relation(f"R{index}", [f"a{index}", f"b{index}"]))
        policy = Policy(schema)
        for index in range(1, 100):
            policy.grant(Authorization(f"R{index}", [f"a{index}"], [], "S"))
        rule = Authorization("R0", [], ["b0"], "S")
        stop = threading.Event()

        errors: list[Exception] = []

        def read():
            try:
                while not stop.is_set():
                    policy.view("S")
            except RuntimeError as error:  # the rule table moved mid-read
                errors.append(error)

        readers = [threading.Thread(target=read) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for reader in readers:
                reader.start()
            for _ in range(300):
                policy.grant(rule)
                assert policy.view("S").encrypted == frozenset({"b0"})
                policy.revoke("R0", "S")
                assert not policy.view("S").encrypted
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for reader in readers:
                reader.join(5)
        assert not any(reader.is_alive() for reader in readers)
        assert not errors


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
