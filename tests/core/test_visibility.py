"""Definition 4.1 (authorized relation) and 4.2 (authorized assignee).

Includes the paper's Example 4.1 verbatim.
"""

import pytest

from repro.core.authorization import SubjectView
from repro.core.equivalence import EquivalenceClasses
from repro.core.profile import RelationProfile
from repro.core.visibility import (
    authorized_assignees,
    check_relation,
    verify_assignment,
)
from repro.exceptions import UnauthorizedError
from repro.paper_example import build_running_example

#: The profile of Example 4.1: [P, BSC, -, -, {SC}].
EXAMPLE_41 = RelationProfile(
    visible_plaintext=frozenset("P"),
    visible_encrypted=frozenset("BSC"),
    equivalences=EquivalenceClasses.of({"S", "C"}),
)


def view(name: str) -> SubjectView:
    return build_running_example().policy.view(name)


class TestExample41:
    def test_y_is_authorized(self):
        assert check_relation(view("Y"), EXAMPLE_41).authorized

    def test_h_fails_condition_1(self):
        check = check_relation(view("H"), EXAMPLE_41)
        assert not check.authorized
        assert any("condition 1" in v and "'P'" in v
                   for v in check.violations)

    def test_u_fails_condition_2(self):
        check = check_relation(view("U"), EXAMPLE_41)
        assert not check.authorized
        assert any("condition 2" in v and "'B'" in v
                   for v in check.violations)

    def test_i_fails_condition_3(self):
        check = check_relation(view("I"), EXAMPLE_41)
        assert not check.authorized
        assert any("condition 3" in v for v in check.violations)


class TestConditions:
    def test_implicit_plaintext_needs_plaintext_authorization(self):
        profile = RelationProfile(
            visible_plaintext=frozenset("T"),
            implicit_plaintext=frozenset("D"),
        )
        subject = SubjectView("s", frozenset("T"), frozenset("D"))
        assert not check_relation(subject, profile).authorized

    def test_plaintext_covers_encrypted_requirement(self):
        profile = RelationProfile(visible_encrypted=frozenset("A"))
        subject = SubjectView("s", frozenset("A"), frozenset())
        assert check_relation(subject, profile).authorized

    def test_uniform_visibility_applies_to_invisible_members(self):
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
        with pytest.raises(UnauthorizedError):
            verify_assignment(example.plan, example.policy, assignment)

    def test_rejects_missing_coverage(self):
        example = build_running_example()
        with pytest.raises(UnauthorizedError):
            verify_assignment(example.plan, example.policy, {})
