"""Cost-based assignment of operations to candidates (§6–§7).

Implements the five-step pipeline of §6:

1. post-order visit computing the candidate sets Λ (Definition 5.3);
2. choice of an assignment λ ∈ Λ minimizing economic cost — the dynamic
   program of :mod:`repro.core.search` over the edge-cost tables of
   :mod:`repro.core.edgecost`;
3. post-order plan extension with encryption/decryption (Definition 5.4);
4. key establishment (Definition 6.1);
5. (dispatch lives in :mod:`repro.core.dispatch`).

Contract: the DP is exact only under its pairwise cost approximation
(assignment-dependent scheme choices are estimated per edge), so
:func:`assign` runs it as a *portfolio* — optimistic, conservative and
trusted-subjects-only passes — drops proposals that repeat an earlier
one, materialises each distinct proposal once (extension → schemes →
keys → exact cost) and keeps the cheapest; the others stay on the
winner as warm standby plans.  The reported cost is always the exact
cost of the materialised extended plan, and every proposal passes
``verify_assignment`` inside :func:`minimally_extend`.

Repeated queries over a stable policy can additionally pass an
:class:`~repro.core.plancache.AssignmentCache`, which memoises full
results keyed by the plan object itself and reconciled across policy
versions; a structurally equal but distinct plan is planned afresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.core.authorization import Policy, Subject, stands_in_for
from repro.core.candidates import (
    CandidateAssignment,
    compute_candidates,
    user_can_receive_result,
)
from repro.core.edgecost import EdgeTableCache
from repro.core.extension import ExtendedPlan, minimally_extend
from repro.core.keys import (
    KeyAssignment,
    establish_keys,
    schemes_for_extended_plan,
)
from repro.core.operators import PlanNode
from repro.core.plan import QueryPlan
from repro.core.plancache import (
    AssignmentCache,
    assignment_cache_key,
    plan_dependencies,
)
from repro.core.requirements import chosen_schemes
from repro.core.search import _AssignmentSearch
from repro.cost.estimator import PlanEstimator
from repro.cost.model import CostBreakdown, CostModel
from repro.cost.pricing import PriceList
from repro.exceptions import (
    AuthorizationError,
    NoCandidateError,
    UnauthorizedError,
)


@dataclass
class AssignmentResult:
    """Everything produced by the assignment pipeline."""

    assignment: dict[PlanNode, str]
    extended: ExtendedPlan
    keys: KeyAssignment
    cost: CostBreakdown
    candidates: CandidateAssignment
    #: The losing §6 portfolio proposals (fully extended, keyed, and
    #: costed), cheapest first.  The service layer keeps these as warm
    #: standby plans: when a provider in the chosen assignment dies
    #: mid-query, a standby that avoids it can be dispatched without
    #: re-planning.  Empty when every pass proposed the same assignment.
    portfolio: tuple["AssignmentResult", ...] = ()
    #: One write-once cell (empty, or one item) for what a caller
    #: derives from this result and wants to live exactly as long as it
    #: — the service keeps its ``(DistributedKeys, DispatchPlan)`` here.
    derived: list = field(default_factory=list, repr=False, compare=False)

    def assignee(self, node: PlanNode) -> str:
        """Chosen subject for an original-plan operation.

        Plan nodes hash by identity, so this is a live O(1) lookup in
        the public ``assignment`` dict.
        """
        subject = self.assignment.get(node)
        if subject is None:
            raise UnauthorizedError(f"no assignee recorded for {node.label()}")
        return subject

    def describe(self) -> str:
        """Assignment summary plus the cost line."""
        lines = [self.extended.describe(), self.cost.describe()]
        return "\n".join(lines)


def assign(
    plan: QueryPlan,
    policy: Policy,
    subjects: Iterable[Subject | str],
    prices: PriceList,
    user: str,
    owners: Mapping[str, str] | None = None,
    cache: AssignmentCache | None = None,
    edge_cache: EdgeTableCache | None = None,
) -> AssignmentResult:
    """Run the full §6 pipeline and return the cheapest authorized plan.

    ``cache`` optionally memoises
    full results across calls: hits require the same plan object and
    the same live policy and price-list objects, and survive
    policy mutations whose deltas do not touch the plan's dependency
    footprint (see :mod:`repro.core.cache`).  ``edge_cache`` shares
    decomposed DP edge tables across queries.  Cached results are
    shared, not copied.

    Raises :class:`NoCandidateError` when some operation has no candidate,
    :class:`UnauthorizedError` when the querying user may not receive
    the query result, and :class:`AuthorizationError` when a name in
    ``subjects`` is reserved for a stand-in
    (:data:`~repro.core.authorization.STAND_IN_PREFIX`).
    """
    subject_names = [
        s.name if isinstance(s, Subject) else s for s in subjects
    ]
    reserved = [n for n in subject_names if stands_in_for(n) is not None]
    if reserved:
        raise AuthorizationError(
            f"subject names {reserved} are reserved for the stand-ins of "
            "relations nobody owns"
        )
    if cache is not None:
        cache_key = assignment_cache_key(plan, subject_names, user, owners)
        cache_context = (policy, prices)
        hit = cache.get(cache_key, cache_context, policy=policy)
        if hit is not None:
            return hit
    candidates = compute_candidates(plan, policy, subject_names)
    candidates.require_nonempty()
    if not user_can_receive_result(plan, policy, user, candidates.min_views):
        raise UnauthorizedError(
            f"user {user} is not authorized for the query result",
            subject=user,
        )

    schemes = chosen_schemes(plan)
    searcher = _AssignmentSearch(
        plan=plan,
        policy=policy,
        candidates=candidates,
        requirements=candidates.min_views.requirements,
        schemes=schemes,
        prices=prices,
        estimator=PlanEstimator(schemes),
        owners=dict(owners or {}),
        user=user,
        edge_cache=edge_cache,
    )
    # Portfolio: the DP's pairwise costs cannot see assignment-dependent
    # scheme choices exactly (§6's combined steps 2–3), so propose
    # optimistic and conservative searches plus the no-provider
    # baseline, then compare *exact* extended-plan costs.  A pass that
    # repeats an earlier proposal would repeat its exact pipeline too.
    trusted = frozenset({user}) | frozenset((owners or {}).values())
    proposals: list[dict[PlanNode, str]] = []
    for mode, restrict_to in (("optimistic", None), ("conservative", None),
                              ("optimistic", trusted)):
        searcher.edge_scheme_mode = mode
        try:
            proposal = searcher.dynamic_programming(restrict_to=restrict_to)
        except NoCandidateError:
            continue
        if proposal not in proposals:
            proposals.append(proposal)
    if not proposals:
        raise NoCandidateError("no feasible assignment for the plan")

    results: list[AssignmentResult] = []
    for assignment in proposals:
        extended = minimally_extend(
            plan, policy, assignment, owners=owners, deliver_to=user,
        )
        # §6: schemes depend on the chosen assignment — attributes
        # encrypted purely in transit get randomized encryption; only
        # attributes some assignee computes on encrypted need
        # det/OPE/Paillier.
        exact_schemes = schemes_for_extended_plan(extended, policy)
        keys = establish_keys(extended, policy, schemes=exact_schemes)
        exact_model = CostModel(prices, PlanEstimator(exact_schemes))
        cost = exact_model.extended_plan_cost(extended, user, owners)
        results.append(AssignmentResult(
            assignment=assignment,
            extended=extended,
            keys=keys,
            cost=cost,
            candidates=candidates,
        ))
    # min() and sorted() are stable: on equal cost the earlier pass wins
    # and the standbys keep pass order.
    best = min(results, key=lambda r: r.cost.total_usd)
    best.portfolio = tuple(sorted(
        (r for r in results if r is not best),
        key=lambda r: r.cost.total_usd))
    if cache is not None:
        cache.put(cache_key, cache_context, best, policy=policy,
                  depends=plan_dependencies(plan, subject_names, user,
                                            owners))
    return best

