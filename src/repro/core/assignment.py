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
results keyed by the plan fingerprint and the policy version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.core.authorization import Policy, Subject, stands_in_for
from repro.core.candidates import (
    CandidateAssignment,
    MinimumViewProfiles,
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
from repro.core.plan import NodeMap, QueryPlan
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
    #: A result rebound onto another plan object shares the same cell.
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
    full results across calls: hits require an identical plan structure
    and the same live policy and price-list objects, and survive
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
        cache_key = assignment_cache_key(
            plan, policy, subject_names, user, owners)
        cache_context = (policy, prices)
        depends = plan_dependencies(plan, subject_names, user, owners)
        hit = cache.get(cache_key, cache_context, policy=policy)
        if hit is not None:
            return _rebind_result(hit, plan)
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
                  depends=depends)
    return best


def _rebind_result(result: AssignmentResult,
                   plan: QueryPlan) -> AssignmentResult:
    """Re-key a cached result onto a structurally identical plan.

    Cache hits may come from a different (structurally equal) plan
    object — the multi-tenant repeat-query scenario re-parses the same
    query into fresh nodes.  The matching fingerprint guarantees the
    post-order node sequences align one-to-one, so every node-keyed
    structure (assignment, candidate sets, minimum-view profiles,
    requirements) is remapped positionally onto the caller's nodes.  The
    extended plan is self-contained (its nodes are created by the
    extension, never shared with the input plan) and is reused as-is.
    """
    cached_plan = result.candidates.plan
    if cached_plan.root is plan.root:
        return result
    old_nodes = cached_plan.nodes()
    new_nodes = plan.nodes()
    assert len(old_nodes) == len(new_nodes), "fingerprint collision"
    old_min = result.candidates.min_views
    requirement_map: NodeMap[frozenset[str]] = NodeMap(old_min.requirements)
    assignment: dict[PlanNode, str] = {}
    requirements: dict[PlanNode, frozenset[str]] = {}
    results: dict[int, object] = {}
    operand_views: dict[int, tuple] = {}
    candidate_sets: dict[int, frozenset[str]] = {}
    for old, new in zip(old_nodes, new_nodes):
        subject = result.assignment.get(old)
        if subject is not None:
            assignment[new] = subject
        needed = requirement_map.get(old)
        if needed is not None:
            requirements[new] = needed
        profile = old_min.results.get(id(old))
        if profile is not None:
            results[id(new)] = profile
        views = old_min.operand_views.get(id(old))
        if views is not None:
            operand_views[id(new)] = views
    for old_op, new_op in zip(cached_plan.operations(), plan.operations()):
        candidate_sets[id(new_op)] = result.candidates[old_op]
    min_views = MinimumViewProfiles(
        plan=plan,
        requirements=requirements,
        results=results,
        operand_views=operand_views,
    )
    return AssignmentResult(
        assignment=assignment,
        extended=result.extended,
        keys=result.keys,
        cost=result.cost,
        candidates=CandidateAssignment(plan, candidate_sets, min_views),
        # Standbys are self-contained (extended plan + keys only are
        # consumed on failover), so no rebinding is needed for them.
        portfolio=result.portfolio,
        derived=result.derived,
    )
