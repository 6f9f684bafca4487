"""Exhaustive search over Λ: what the §6 portfolio approximates from above.

Enumerates every assignment in the candidate domains, materialises each
with :func:`minimally_extend` and prices it with
:meth:`CostModel.extended_plan_cost` — public API only.  Tractable only
in small regimes (more than 50 000 combinations raises), which is why
it is an oracle for the DP-optimality tests and not a planner strategy.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.core.authorization import Policy
from repro.core.candidates import compute_candidates
from repro.core.extension import minimally_extend
from repro.core.keys import schemes_for_extended_plan
from repro.core.operators import PlanNode
from repro.core.plan import QueryPlan
from repro.core.requirements import chosen_schemes
from repro.cost.estimator import PlanEstimator
from repro.cost.model import CostModel
from repro.cost.pricing import PriceList
from repro.exceptions import NoCandidateError, UnauthorizedError

COMBINATION_LIMIT = 50_000


def exhaustive_search(plan: QueryPlan, policy: Policy,
                      subjects: Iterable[str], prices: PriceList,
                      user: str, owners: Mapping[str, str] | None = None,
                      prune: bool = True,
                      ) -> tuple[dict[PlanNode, str], dict[str, int]]:
    """The cheapest assignment in Λ and the search's accounting.

    A depth-first enumeration over the candidate domains.  Every
    node's exact extended-plan cost is bounded below by its CPU charge
    at its assignee (encryption only *adds* operations and never
    shrinks rows), so with ``prune`` a partial assignment whose
    accumulated CPU bound plus the best-case bound of the remaining
    operations already meets the incumbent cannot improve on it and its
    whole subtree is skipped.  Combinations whose minimal extension
    raises :class:`UnauthorizedError` are counted, not silently dropped;
    the counts are returned (``combinations`` = ``evaluated`` +
    ``pruned`` + ``skipped_unauthorized``) and reported in the
    :class:`NoCandidateError` raised when nothing is feasible.
    """
    owners = dict(owners or {})
    candidates = compute_candidates(plan, policy, list(subjects))
    candidates.require_nonempty()
    estimator = PlanEstimator(chosen_schemes(plan))
    model = CostModel(prices, estimator)
    estimates = estimator.estimate(plan)

    operations = list(plan.operations())
    domains = [sorted(candidates[n]) for n in operations]
    combination_count = 1
    for domain in domains:
        combination_count *= len(domain)
    if combination_count > COMBINATION_LIMIT:
        raise NoCandidateError(
            f"exhaustive search infeasible: {combination_count} "
            f"assignments"
        )
    stats = {
        "combinations": combination_count,
        "evaluated": 0,
        "pruned": 0,
        "skipped_unauthorized": 0,
    }

    def cpu_bound(node: PlanNode, subject: str) -> float:
        return (estimates[node].cpu_seconds
                * prices.rates(subject).cpu_usd_per_second)

    # CPU charged to the data authorities is combination-independent.
    leaf_floor = sum(
        cpu_bound(leaf, owners.get(leaf.relation.name,
                                   f"authority:{leaf.relation.name}"))
        for leaf in plan.leaves()
    )
    bounds = [
        {subject: cpu_bound(node, subject) for subject in domain}
        for node, domain in zip(operations, domains)
    ]
    suffix_floor = [0.0] * (len(operations) + 1)
    subtree_size = [1] * (len(operations) + 1)
    for index in range(len(operations) - 1, -1, -1):
        suffix_floor[index] = (suffix_floor[index + 1]
                               + min(bounds[index].values()))
        subtree_size[index] = subtree_size[index + 1] * len(domains[index])

    best_cost: float | None = None
    best_assignment: dict[PlanNode, str] | None = None
    chosen: list[str] = []

    def visit(index: int, floor: float) -> None:
        nonlocal best_cost, best_assignment
        if prune and best_cost is not None \
                and floor + suffix_floor[index] >= best_cost:
            stats["pruned"] += subtree_size[index]
            return
        if index == len(operations):
            assignment = dict(zip(operations, chosen))
            try:
                extended = minimally_extend(
                    plan, policy, assignment, owners=owners, deliver_to=user,
                )
            except UnauthorizedError:
                stats["skipped_unauthorized"] += 1
                return
            stats["evaluated"] += 1
            cost = model.extended_plan_cost(extended, user,
                                            owners).total_usd
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_assignment = assignment
            return
        for subject in domains[index]:
            chosen.append(subject)
            visit(index + 1, floor + bounds[index][subject])
            chosen.pop()

    visit(0, leaf_floor)
    if best_assignment is None:
        raise NoCandidateError(
            "no authorized assignment exists "
            f"({stats['skipped_unauthorized']} combinations skipped as "
            f"unauthorized, {stats['pruned']} pruned)"
        )
    return best_assignment, stats


def exact_cost(plan: QueryPlan, policy: Policy,
               assignment: Mapping[PlanNode, str], prices: PriceList,
               user: str, owners: Mapping[str, str] | None = None,
               ) -> float:
    """``Cq`` of one assignment, priced the way ``assign`` prices its
    proposals: extended, then costed under the schemes the extension
    itself calls for."""
    extended = minimally_extend(plan, policy, dict(assignment),
                                owners=owners, deliver_to=user)
    schemes = schemes_for_extended_plan(extended, policy)
    model = CostModel(prices, PlanEstimator(schemes))
    return model.extended_plan_cost(extended, user, owners).total_usd
