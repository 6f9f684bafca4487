"""Authorized visibility and operation assignment (Section 4).

Applies Definition 4.1 (when a subject is *authorized for a relation*,
given its profile) and Definition 4.2 (when a subject is an *authorized
assignee* of a plan operation, i.e. authorized for the operands and for
the produced relation) to whole plans: who may run each operation
(:func:`authorized_assignees`, Figure 3) and whether an assignment is
authorized (:func:`verify_assignment`).

The definitions themselves are stated once, over bitmasks, in
:mod:`repro.core.attrsets` (``relation_authorized`` /
``assignee_authorized``); a refusal names its reasons through
``assignee_violations``.  A plan's profiles are interned once and cached
on the plan (:func:`_plan_masks`): these functions and the run-time
``check_profile`` all read that copy.  The literal statement over
attribute sets, with the paper's Example 4.1, is the test oracle
``tests/oracles/authorization_literal.py``.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.core.attrsets import (
    AttributeUniverse,
    MaskProfile,
    MaskView,
    assignee_authorized,
    assignee_violations,
)
from repro.core.authorization import (
    Policy,
    Subject,
    SubjectView,
    stands_in_for,
)
from repro.core.lineage import plan_view
from repro.core.operators import BaseRelationNode, Encrypt, PlanNode
from repro.core.plan import QueryPlan
from repro.exceptions import UnauthorizedError


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


def _plan_masks(plan: QueryPlan) -> tuple[
        AttributeUniverse, dict[PlanNode, MaskProfile], frozenset[str]]:
    """Every node's profile of ``plan`` interned once, cached on the plan
    like its profiles and lineage: the universe, node → mask profile, and
    the names interned.  Nothing is interned into that universe later
    (:func:`_view_masks` masks a view over those names only), so runs of
    one plan on several threads share it without a lock."""
    if plan._masks is None:
        universe = AttributeUniverse()
        masks = {node: profile.masks(universe)
                 for node, profile in plan.profiles().items()}
        plan._masks = (universe, masks,
                       universe.names((1 << len(universe)) - 1))
    return plan._masks


def _view_masks(view: SubjectView, universe: AttributeUniverse,
                names: frozenset[str]) -> MaskView:
    """``view`` masked over ``names``, interning nothing: an attribute no
    profile of the plan names cannot change a verdict about it."""
    return MaskView(universe.mask(view.plaintext & names),
                    universe.mask(view.encrypted & names))


def authorized_assignees(plan: QueryPlan, policy: Policy,
                         subjects: Iterable[Subject | str],
                         ) -> dict[PlanNode, frozenset[str]]:
    """Authorized assignees of every operation of ``plan`` (Figure 3).

    Evaluates Definition 4.2 against the plan's *actual* profiles — i.e.
    without assuming any additional encryption.  (The candidate sets of
    Definition 5.3, which do assume encryption-on-the-fly, live in
    :mod:`repro.core.candidates`.)
    """
    universe, masks, names = _plan_masks(plan)
    views = [plan_view(policy, s, plan) for s in subjects]
    view_masks = [(view.subject, _view_masks(view, universe, names))
                  for view in views]
    result: dict[PlanNode, frozenset[str]] = {}
    for node in plan.operations():
        operand_masks = [masks[child] for child in node.children]
        result[node] = frozenset(
            subject for subject, view in view_masks
            if assignee_authorized(view, operand_masks, masks[node])
        )
    return result


def verify_assignment(plan: QueryPlan, policy: Policy,
                      assignment: Mapping[PlanNode, str]) -> bool:
    """Whether ``assignment`` is an authorized assignment function (Def. 4.2).

    ``assignment`` must cover every non-leaf node of ``plan``.  Raises
    :class:`UnauthorizedError` naming the first violating node otherwise.
    """
    universe, masks, names = _plan_masks(plan)
    views: dict[str, MaskView] = {}
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
        view = views.get(subject)
        if view is None:
            view = views[subject] = _view_masks(
                plan_view(policy, subject, plan), universe, names)
        operands = [masks[child] for child in node.children]
        if not assignee_authorized(view, operands, masks[node]):
            violations = assignee_violations(view, operands, masks[node])
            raise UnauthorizedError(
                f"subject {subject} is not an authorized assignee of "
                f"{node.label()}: " + "; ".join(violations),
                subject=subject,
                violations=violations,
            )
    return True
