"""Definition 4.1 (authorized relation) and 4.2 (authorized assignee).

Includes the paper's Example 4.1 verbatim.  Each condition is asked of
the literal statement (``oracles.authorization_literal``) and of the
package's mask kernel, which must give the same verdict and the same
reasons.
"""

import doctest

import pytest

from repro.core.attrsets import (
    AttributeUniverse,
    relation_authorized,
    relation_violations,
)
from repro.core.authorization import SubjectView
from repro.core.equivalence import EquivalenceClasses
from repro.core.profile import RelationProfile
from repro.core.visibility import (
    _plan_masks,
    authorized_assignees,
    verify_assignment,
)
from repro.distributed.enforcement import check_profile
from repro.exceptions import UnauthorizedError
from repro.paper_example import build_running_example

from oracles import authorization_literal

#: The profile of Example 4.1: [P, BSC, -, -, {SC}].
EXAMPLE_41 = RelationProfile(
    visible_plaintext=frozenset("P"),
    visible_encrypted=frozenset("BSC"),
    equivalences=EquivalenceClasses.of({"S", "C"}),
)


def view(name: str) -> SubjectView:
    return build_running_example().policy.view(name)


def mask_check(view, profile) -> authorization_literal.Verdict:
    """The mask kernel's verdict, with its reasons rendered on a refusal."""
    universe = AttributeUniverse()
    masks = view.masks(universe), profile.masks(universe)
    if relation_authorized(*masks):
        return authorization_literal.Verdict(True)
    return authorization_literal.Verdict(False, relation_violations(*masks))


@pytest.fixture(params=[authorization_literal.check_relation, mask_check],
                ids=["literal", "masks"])
def check_relation(request):
    return request.param


def test_example_41_doctest_runs():
    results = doctest.testmod(authorization_literal)
    assert results.attempted and not results.failed


class TestExample41:
    def test_y_is_authorized(self, check_relation):
        assert check_relation(view("Y"), EXAMPLE_41).authorized

    def test_h_fails_condition_1(self, check_relation):
        check = check_relation(view("H"), EXAMPLE_41)
        assert not check.authorized
        assert any("condition 1" in v and "'P'" in v
                   for v in check.violations)

    def test_u_fails_condition_2(self, check_relation):
        check = check_relation(view("U"), EXAMPLE_41)
        assert not check.authorized
        assert any("condition 2" in v and "'B'" in v
                   for v in check.violations)

    def test_i_fails_condition_3(self, check_relation):
        check = check_relation(view("I"), EXAMPLE_41)
        assert not check.authorized
        assert any("condition 3" in v for v in check.violations)


class TestConditions:
    def test_implicit_plaintext_needs_plaintext_authorization(
            self, check_relation):
        profile = RelationProfile(
            visible_plaintext=frozenset("T"),
            implicit_plaintext=frozenset("D"),
        )
        subject = SubjectView("s", frozenset("T"), frozenset("D"))
        assert not check_relation(subject, profile).authorized

    def test_plaintext_covers_encrypted_requirement(self, check_relation):
        profile = RelationProfile(visible_encrypted=frozenset("A"))
        subject = SubjectView("s", frozenset("A"), frozenset())
        assert check_relation(subject, profile).authorized

    def test_uniform_visibility_applies_to_invisible_members(
            self, check_relation):
        # All equivalence-set members count, visible or not (§4).
        profile = RelationProfile(
            visible_plaintext=frozenset("A"),
            equivalences=EquivalenceClasses.of({"A", "B"}),
        )
        missing_b = SubjectView("s", frozenset("A"), frozenset())
        assert not check_relation(missing_b, profile).authorized
        has_b = SubjectView("s", frozenset("AB"), frozenset())
        assert check_relation(has_b, profile).authorized


class TestFigure3Assignees:
    def test_assignees_match_paper(self):
        example = build_running_example()
        assignees = authorized_assignees(
            example.plan, example.policy, example.subject_names
        )
        assert "".join(sorted(assignees[example.selection])) == "HU"
        assert "".join(sorted(assignees[example.join])) == "U"
        assert "".join(sorted(assignees[example.group_by])) == "U"
        assert "".join(sorted(assignees[example.having])) == "UY"


class TestVerifyAssignment:
    def test_accepts_authorized_assignment(self):
        example = build_running_example()
        assignment = {
            example.selection: "H",
            example.join: "U",
            example.group_by: "U",
            example.having: "U",
        }
        assert verify_assignment(example.plan, example.policy, assignment)

    def test_rejects_unauthorized_assignment(self):
        example = build_running_example()
        assignment = {
            example.selection: "H",
            example.join: "X",  # X may not see S, C in plaintext
            example.group_by: "U",
            example.having: "U",
        }
        with pytest.raises(UnauthorizedError) as refused:
            verify_assignment(example.plan, example.policy, assignment)
        # The refusal names the join and exactly the literal reasons.
        profiles = example.plan.profiles()
        expected = authorization_literal.check_assignee(
            view("X"), [profiles[c] for c in example.join.children],
            profiles[example.join])
        assert refused.value.subject == "X"
        assert example.join.label() in str(refused.value)
        assert sorted(refused.value.violations) == sorted(expected.violations)
        assert any(v.startswith("operand 0: condition 1")
                   for v in refused.value.violations)

    def test_rejects_missing_coverage(self):
        example = build_running_example()
        with pytest.raises(UnauthorizedError):
            verify_assignment(example.plan, example.policy, {})

    def test_verification_and_runs_share_one_copy_that_never_grows(self):
        """The plan's profiles are interned once; masking a view interns
        nothing (its attributes outside the plan cannot change a verdict),
        so every run of the plan, on any thread, reads the same copy."""
        example = build_running_example()
        assignment = {
            example.selection: "H",
            example.join: "U",
            example.group_by: "U",
            example.having: "U",
        }
        assert verify_assignment(example.plan, example.policy, assignment)
        universe, _masks, names = _plan_masks(example.plan)
        size = len(universe)
        everything = SubjectView("W", names | {"outside"}, frozenset({"x"}))
        for node in example.plan.operations():
            check_profile(everything, example.plan, node, "it")
        with pytest.raises(UnauthorizedError, match="condition 1"):
            check_profile(view("X"), example.plan, example.join, "it")
        assert _plan_masks(example.plan)[0] is universe
        assert len(universe) == size
