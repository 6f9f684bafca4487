"""Minimum required views and assignment candidates (Definitions 5.2–5.3).

The *minimum required view* over an operand (Def. 5.2) is the operand with
every visible attribute encrypted except those the operation needs in
plaintext (``Ap``).  A subject is a *candidate* for an operation (Def. 5.3)
when it is an authorized assignee over the minimum required views — i.e.
when on-the-fly encryption could protect the operands enough for that
subject without breaking the operation.

Following Figure 6, the node profiles used here are computed *recursively*
assuming every operand of every operation is replaced by its minimum
required view: the candidate computation explores the most-encrypted
execution compatible with the operation requirements, which by Theorem 5.2
captures exactly the assignments that some extended plan can authorize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.attrsets import (
    AttributeUniverse,
    assignee_authorized,
    relation_authorized,
)
from repro.core.authorization import Policy, Subject, SubjectView
from repro.core.lineage import augment_view, derived_lineage
from repro.core.operators import PlanNode
from repro.core.plan import NodeMap, QueryPlan
from repro.core.profile import RelationProfile
from repro.core.requirements import (
    SchemeCapabilities,
    infer_plaintext_requirements,
)
from repro.exceptions import NoCandidateError, PlanError


def minimum_required_view(profile: RelationProfile,
                          plaintext_needed: Iterable[str]) -> RelationProfile:
    """Definition 5.2 applied to a profile.

    ``R̄y = decrypt(Ap, encrypt(Rvp_y \\ Ap, Ry))`` — encrypt every visible
    plaintext attribute the operation does not need in plaintext, and
    decrypt the needed ones that are currently encrypted.
    """
    needed = frozenset(plaintext_needed)
    encrypted = profile.encrypt(profile.visible_plaintext - needed)
    return encrypted.decrypt(needed & encrypted.visible_encrypted)


@dataclass(frozen=True)
class MinimumViewProfiles:
    """Profiles of the fully-encrypted (minimum-view) execution of a plan.

    ``results`` maps every node to the profile of the relation it produces
    in the recursive minimum-view computation; ``operand_views`` maps every
    operation to the minimum required views over its operands (the dotted
    boxes of Figure 6).
    """

    plan: QueryPlan
    requirements: Mapping[PlanNode, frozenset[str]]
    results: Mapping[int, RelationProfile]
    operand_views: Mapping[int, tuple[RelationProfile, ...]]

    def result_profile(self, node: PlanNode) -> RelationProfile:
        """Minimum-view profile of the relation produced by ``node``."""
        try:
            return self.results[id(node)]
        except KeyError:
            raise PlanError(f"node {node!r} not in plan") from None

    def views_for(self, node: PlanNode) -> tuple[RelationProfile, ...]:
        """Minimum required views over the operands of ``node``."""
        try:
            return self.operand_views[id(node)]
        except KeyError:
            raise PlanError(f"node {node!r} not in plan") from None


def minimum_view_profiles(
    plan: QueryPlan,
    requirements: Mapping[PlanNode, frozenset[str]] | None = None,
    capabilities: SchemeCapabilities | None = None,
) -> MinimumViewProfiles:
    """Compute the recursive minimum-view profiles of ``plan`` (Figure 6).

    ``requirements`` is the per-node ``Ap`` mapping; when omitted it is
    inferred from the available scheme capabilities
    (:func:`~repro.core.requirements.infer_plaintext_requirements`).
    """
    if requirements is None:
        requirements = infer_plaintext_requirements(plan, capabilities)
    requirement_map: NodeMap[frozenset[str]] = NodeMap(requirements)

    def plaintext_needed(node: PlanNode) -> frozenset[str]:
        return requirement_map.get(node, frozenset())

    results: dict[int, RelationProfile] = {}
    operand_views: dict[int, tuple[RelationProfile, ...]] = {}
    for node in plan.postorder():
        if node.is_leaf:
            results[id(node)] = node.output_profile()
            continue
        needed = plaintext_needed(node)
        views = tuple(
            minimum_required_view(results[id(child)], needed)
            for child in node.children
        )
        operand_views[id(node)] = views
        results[id(node)] = node.output_profile(*views)
    return MinimumViewProfiles(
        plan=plan,
        requirements=requirements,
        results=results,
        operand_views=operand_views,
    )


class CandidateAssignment:
    """The candidate assignment function Λ of Definition 5.3.

    Maps every operation of the plan to the set of subject names that can
    be made authorized assignees by inserting encryption/decryption
    operations (Theorem 5.2).
    """

    def __init__(self, plan: QueryPlan,
                 candidates: dict[int, frozenset[str]],
                 min_views: MinimumViewProfiles) -> None:
        self._plan = plan
        self._candidates = candidates
        self.min_views = min_views

    @property
    def plan(self) -> QueryPlan:
        """The analysed query plan."""
        return self._plan

    def candidates(self, node: PlanNode) -> frozenset[str]:
        """Candidate subjects for ``node`` (Λ(n))."""
        try:
            return self._candidates[id(node)]
        except KeyError:
            raise PlanError(
                f"node {node!r} is not an operation of this plan"
            ) from None

    def __getitem__(self, node: PlanNode) -> frozenset[str]:
        return self.candidates(node)

    def items(self) -> list[tuple[PlanNode, frozenset[str]]]:
        """(operation, candidate set) pairs in post-order."""
        return [
            (node, self._candidates[id(node)])
            for node in self._plan.operations()
        ]

    def require_nonempty(self) -> None:
        """Raise :class:`NoCandidateError` if some operation has none."""
        for node, names in self.items():
            if not names:
                raise NoCandidateError(
                    f"no subject is a candidate for operation {node.label()}",
                    node=node,
                )

    def describe(self) -> str:
        """Tree rendering with candidate sets (left-hand labels of Fig. 6)."""
        return self._plan.pretty({
            node: "Λ=" + ("{" + ",".join(sorted(names)) + "}" if names else "∅")
            for node, names in self.items()
        })


def compute_candidates(
    plan: QueryPlan,
    policy: Policy,
    subjects: Iterable[Subject | str],
    requirements: Mapping[PlanNode, frozenset[str]] | None = None,
    capabilities: SchemeCapabilities | None = None,
) -> CandidateAssignment:
    """Compute Λ for every operation of ``plan`` (Definition 5.3).

    ``subjects`` is the universe of subjects considered for assignment
    (users, authorities, providers).  A subject is a candidate for an
    operation when Definition 4.2 holds over the minimum required views of
    the operands and the resulting minimum-view profile.
    """
    min_views = minimum_view_profiles(plan, requirements, capabilities)
    lineage = derived_lineage(plan)
    universe = AttributeUniverse()
    views: list[SubjectView] = [
        augment_view(
            policy.view(s.name if isinstance(s, Subject) else s), lineage
        )
        for s in subjects
    ]
    # Definition 4.2 over the minimum views, mask-backed: profiles and
    # views are interned once, so the subject × node loop is a handful
    # of integer subset tests per check instead of frozenset algebra.
    view_masks = [(view.subject, view.masks(universe)) for view in views]
    candidates: dict[int, frozenset[str]] = {}
    for node in plan.operations():
        operand_masks = tuple(
            profile.masks(universe) for profile in min_views.views_for(node)
        )
        result_masks = min_views.result_profile(node).masks(universe)
        candidates[id(node)] = frozenset(
            subject for subject, masks in view_masks
            if assignee_authorized(masks, operand_masks, result_masks)
        )
    return CandidateAssignment(plan, candidates, min_views)


def user_can_receive_result(plan: QueryPlan, policy: Policy,
                            user: Subject | str,
                            min_views: MinimumViewProfiles | None = None,
                            ) -> bool:
    """Whether the querying user may receive the final (decrypted) result.

    §2 expects users to hold plaintext-only authorizations, since they
    must access the query response and manage keys: the root relation,
    with its visible encrypted attributes decrypted for delivery, must be
    authorized for the user per Definition 4.1.
    """
    min_views = min_views or minimum_view_profiles(plan)
    universe = AttributeUniverse()
    root_masks = min_views.result_profile(plan.root).masks(universe)
    delivered = root_masks.decrypt(root_masks.ve)
    view = augment_view(
        policy.view(user.name if isinstance(user, Subject) else user),
        derived_lineage(plan),
    )
    return relation_authorized(view.masks(universe), delivered)
