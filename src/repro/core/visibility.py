"""Authorized visibility and operation assignment (Section 4).

Implements Definition 4.1 (when a subject is *authorized for a relation*,
given its profile) and Definition 4.2 (when a subject is an *authorized
assignee* of a plan operation, i.e. authorized for the operands and for the
produced relation).

The two definitions are stated twice in the package, each for a reason:
here over attribute sets, saying *why* a subject is refused
(:func:`check_relation` / :func:`check_assignee` — what
:func:`verify_assignment` and the run-time enforcement call), and in
:mod:`repro.core.attrsets` over bitmasks, answering yes or no
(``relation_authorized`` / ``assignee_authorized`` — the planner's inner
loop).  ``tests/properties/test_planner_kernel.py`` holds the two equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.attrsets import AttributeUniverse, assignee_authorized
from repro.core.authorization import (
    Policy,
    Subject,
    SubjectView,
    stands_in_for,
)
from repro.core.lineage import augment_view, derived_lineage
from repro.core.operators import BaseRelationNode, Encrypt, PlanNode
from repro.core.plan import QueryPlan
from repro.core.profile import RelationProfile
from repro.exceptions import UnauthorizedError


@dataclass(frozen=True)
class AuthorizationCheck:
    """Outcome of a Definition 4.1 check, with per-condition diagnostics.

    ``violations`` lists human-readable reasons, each tagged with the
    failing condition number of Definition 4.1.
    """

    subject: str
    authorized: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.authorized


def check_relation(view: SubjectView,
                   profile: RelationProfile) -> AuthorizationCheck:
    """Evaluate Definition 4.1 for a subject view and a relation profile.

    The three conditions:

    1. ``Rvp ∪ Rip ⊆ P_S`` — authorized for plaintext;
    2. ``Rve ∪ Rie ⊆ P_S ∪ E_S`` — authorized for encrypted;
    3. ``∀A ∈ R≃: A ⊆ P_S or A ⊆ E_S`` — uniform visibility.

    Examples
    --------
    Example 4.1 of the paper: given Y's view ``P_Y=BDTP, E_Y=SC`` and a
    relation with profile ``[P, BSC, -, -, {SC}]``, Y is authorized:

    >>> from repro.core.authorization import SubjectView
    >>> from repro.core.profile import RelationProfile
    >>> from repro.core.equivalence import EquivalenceClasses
    >>> y = SubjectView("Y", frozenset("BDTP"), frozenset("SC"))
    >>> r = RelationProfile(frozenset("P"), frozenset("BSC"),
    ...                     equivalences=EquivalenceClasses.of("SC"))
    >>> check_relation(y, r).authorized
    True
    """
    violations: list[str] = []

    plaintext_needed = profile.visible_plaintext | profile.implicit_plaintext
    not_plain = plaintext_needed - view.plaintext
    if not_plain:
        violations.append(
            f"condition 1: no plaintext authorization for {sorted(not_plain)}"
        )

    encrypted_needed = profile.visible_encrypted | profile.implicit_encrypted
    not_enc = encrypted_needed - (view.plaintext | view.encrypted)
    if not_enc:
        violations.append(
            f"condition 2: no visibility authorization for {sorted(not_enc)}"
        )

    for eq_class in profile.equivalences:
        if not (eq_class <= view.plaintext or eq_class <= view.encrypted):
            violations.append(
                "condition 3: non-uniform visibility over "
                f"{{{','.join(sorted(eq_class))}}}"
            )

    return AuthorizationCheck(
        subject=view.subject,
        authorized=not violations,
        violations=tuple(violations),
    )


def check_assignee(view: SubjectView, node: PlanNode,
                   operand_profiles: Iterable[RelationProfile],
                   result_profile: RelationProfile) -> AuthorizationCheck:
    """Evaluate Definition 4.2: authorized for operands *and* result."""
    violations: list[str] = []
    for index, operand in enumerate(operand_profiles):
        check = check_relation(view, operand)
        if not check.authorized:
            violations.extend(
                f"operand {index}: {reason}" for reason in check.violations
            )
    result_check = check_relation(view, result_profile)
    if not result_check.authorized:
        violations.extend(
            f"result: {reason}" for reason in result_check.violations
        )
    return AuthorizationCheck(
        subject=view.subject,
        authorized=not violations,
        violations=tuple(violations),
    )


def is_source_encryption(node: PlanNode, relation: str) -> bool:
    """Whether ``node`` is the ``Encrypt`` directly over ``relation``'s leaf.

    The whole exemption of a stand-in
    (:data:`~repro.core.authorization.STAND_IN_PREFIX`): it holds that
    relation already, so sealing it at the source shows it nothing, and
    :func:`~repro.core.extension.minimally_extend` never assigns it
    anything else.  Any other node would put data in front of a name the
    policy knows nothing about.
    """
    return (isinstance(node, Encrypt)
            and isinstance(node.left, BaseRelationNode)
            and node.left.relation.name == relation)


def authorized_assignees(plan: QueryPlan, policy: Policy,
                         subjects: Iterable[Subject | str],
                         ) -> dict[PlanNode, frozenset[str]]:
    """Authorized assignees of every operation of ``plan`` (Figure 3).

    Evaluates Definition 4.2 against the plan's *actual* profiles — i.e.
    without assuming any additional encryption.  (The candidate sets of
    Definition 5.3, which do assume encryption-on-the-fly, live in
    :mod:`repro.core.candidates`.)
    """
    profiles = plan.profiles()
    lineage = derived_lineage(plan)
    universe = AttributeUniverse()
    views = [
        augment_view(
            policy.view(s.name if isinstance(s, Subject) else s), lineage
        )
        for s in subjects
    ]
    view_masks = [(view.subject, view.masks(universe)) for view in views]
    result: dict[PlanNode, frozenset[str]] = {}
    for node in plan.operations():
        operand_masks = [profiles[child].masks(universe)
                         for child in node.children]
        result_masks = profiles[node].masks(universe)
        result[node] = frozenset(
            subject for subject, masks in view_masks
            if assignee_authorized(masks, operand_masks, result_masks)
        )
    return result


def verify_assignment(plan: QueryPlan, policy: Policy,
                      assignment: Mapping[PlanNode, str]) -> bool:
    """Whether ``assignment`` is an authorized assignment function (Def. 4.2).

    ``assignment`` must cover every non-leaf node of ``plan``.  Raises
    :class:`UnauthorizedError` naming the first violating node otherwise.
    """
    profiles = plan.profiles()
    lineage = derived_lineage(plan)
    for node in plan.operations():
        subject = assignment.get(node)
        if subject is None:
            raise UnauthorizedError(
                f"assignment does not cover operation {node.label()}"
            )
        relation = stands_in_for(subject)
        if relation is not None:
            # No policy view to check against; it holds its own relation.
            if not is_source_encryption(node, relation):
                raise UnauthorizedError(
                    f"{subject} stands in for the owner of {relation} and "
                    f"may only encrypt it at the source, not run "
                    f"{node.label()}",
                    subject=subject,
                )
            continue
        view = augment_view(policy.view(subject), lineage)
        check = check_assignee(
            view, node, [profiles[c] for c in node.children], profiles[node]
        )
        if not check.authorized:
            raise UnauthorizedError(
                f"subject {subject} is not an authorized assignee of "
                f"{node.label()}: " + "; ".join(check.violations),
                subject=subject,
                violations=check.violations,
            )
    return True
