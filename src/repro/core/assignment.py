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
winner as its ``portfolio``.  The reported cost is always the exact
cost of the materialised extended plan, and every proposal passes
``verify_assignment`` inside :func:`minimally_extend`.

Repeated queries over a stable policy can additionally pass an
:class:`~repro.core.plancache.AssignmentCache`, which memoises full
results keyed by the plan object itself and reconciled across policy
versions; a structurally equal but distinct plan is planned afresh.
A re-plan whose reconcile just evicted the cached result runs the full
pipeline under the new policy and, when it lands on the same plan
(:meth:`AssignmentResult.adopt`), keeps the evicted result's extended
plan and dispatch plan, so fragment results the delta did not touch
stay servable; key material is never carried over.
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
    #: costed), cheapest first: what the DP passes proposed and the
    #: exact cost rejected, kept for inspection.  Empty when every pass
    #: proposed the same assignment.
    portfolio: tuple["AssignmentResult", ...] = ()
    #: One cell (empty, or one item) for what a caller derives from
    #: this result and wants to live exactly as long as it — the
    #: service keeps its ``(DistributedKeys, DispatchPlan)`` here.  An
    #: adopting re-plan starts it at ``(None, the evicted result's
    #: dispatch plan)``: the rendering carries over, key material never.
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

    def adopt(self, predecessor: "AssignmentResult") -> bool:
        """Run on ``predecessor``'s extended and dispatch plans if this
        re-plan landed on the same plan: the same assignment, the same
        post-order (label, assignee) pairs of the extended plan and an
        equal :class:`KeyAssignment`.  Then ``dispatch`` would render
        the same fragments, so the predecessor's dispatch plan (and the
        fragment results the runtime keeps on it) stays in use; the
        key material in its ``derived`` cell does not.
        """
        if not (self.assignment == predecessor.assignment
                and _pairs(self.extended) == _pairs(predecessor.extended)
                and self.keys == predecessor.keys):
            return False
        self.extended = predecessor.extended
        if predecessor.derived:
            self.derived.append((None, predecessor.derived[0][1]))
        return True


def _pairs(extended: ExtendedPlan) -> list[tuple[str, str]]:
    """The extended plan's operations as post-order (label, assignee)."""
    return [(node.label(), extended.assignment[node])
            for node in extended.plan.operations()]


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
    footprint (see :mod:`repro.core.cache`).  A re-plan of an entry
    the reconcile just evicted adopts it when it lands on the same plan
    (:meth:`AssignmentResult.adopt`, counted as ``reconcile_adopted``).
    ``edge_cache`` shares decomposed DP edge tables across queries.
    Cached results are shared, not copied.

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
    evicted: list[AssignmentResult] = []
    if cache is not None:
        cache_key = assignment_cache_key(plan, subject_names, user, owners)
        cache_context = (policy, prices)
        hit = cache.get(cache_key, cache_context, policy=policy,
                        evicted=evicted)
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
    proposals: list[dict[PlanNode, str]] = []
    for mode, restrict_to in (("optimistic", None), ("conservative", None),
                              ("optimistic", searcher.trusted)):
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
    # and the portfolio keeps pass order.
    best = min(results, key=lambda r: r.cost.total_usd)
    best.portfolio = tuple(sorted(
        (r for r in results if r is not best),
        key=lambda r: r.cost.total_usd))
    if cache is not None:
        if evicted and best.adopt(evicted.pop()):
            cache.adopted += 1
        cache.put(cache_key, cache_context, best, policy=policy,
                  depends=plan_dependencies(plan, subject_names, user,
                                            owners))
    return best

