"""Cost-based assignment of operations to candidates (§6–§7).

Implements the five-step pipeline of §6:

1. post-order visit computing the candidate sets Λ (Definition 5.3);
2. choice of an assignment λ ∈ Λ minimizing economic cost — a dynamic
   program over (node, subject) states, the strategy the paper's tool
   uses ("our implementation is based on a dynamic programming strategy
   to explore the possible assignments of candidates to operators");
3. post-order plan extension with encryption/decryption (Definition 5.4);
4. key establishment (Definition 6.1);
5. (dispatch lives in :mod:`repro.core.dispatch`).

As §6 notes for non-negligible encryption costs, steps 2–3 are combined:
the DP's edge costs price the encryption/decryption work implied by each
(child subject, parent subject) pair, so scheme costs steer the choice.
The reported cost is always the exact cost of the materialized extended
plan.

Alternative strategies (greedy, exhaustive) are provided for the
ablation benchmarks.

Performance
-----------
The DP is a decomposed, memoized search.  For every plan edge the
pairwise edge cost is split into per-receiver tables (scheme choice,
encryption weights, decrypt baseline) and a per-sender bitmask memo
(overlap corrections), so the DP inner loop over (child subject, parent
subject) pairs costs a few multiply-adds instead of re-deriving
frozenset algebra per pair.  ``node_cost`` and the per-edge tables are
shared across the three portfolio passes.  The direct per-pair
computation it was derived from is the oracle of the equivalence
property tests (``tests/oracles/dp_reference.py``).

Repeated queries over a stable policy can additionally pass an
:class:`~repro.core.plancache.AssignmentCache`, which memoises full
results keyed by the plan fingerprint and the policy version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.core.attrsets import AttributeUniverse
from repro.core.authorization import Policy, Subject, SubjectView
from repro.core.cache import LRU
from repro.core.candidates import (
    CandidateAssignment,
    MinimumViewProfiles,
    compute_candidates,
    user_can_receive_result,
)
from repro.core.plan import NodeMap
from repro.core.plancache import (
    AssignmentCache,
    assignment_cache_key,
    plan_dependencies,
)
from repro.core.extension import ExtendedPlan, minimally_extend
from repro.core.keys import (
    KeyAssignment,
    establish_keys,
    schemes_for_extended_plan,
)
from repro.core.lineage import augment_view, derived_lineage
from repro.core.operators import BaseRelationNode, PlanNode
from repro.core.plan import QueryPlan
from repro.core.predicates import EncryptedCapability
from repro.core.requirements import (
    EncryptionScheme,
    SchemeCapabilities,
    _node_demands,
    chosen_schemes,
    infer_plaintext_requirements,
)
from repro.cost.estimator import NodeEstimate, PlanEstimator
from repro.cost.factors import (
    DECRYPT_SECONDS_PER_VALUE,
    ENCRYPT_SECONDS_PER_VALUE,
    encrypted_width,
)
from repro.cost.model import CostBreakdown, CostModel
from repro.cost.network import NetworkTopology
from repro.cost.pricing import PriceList
from repro.exceptions import NoCandidateError, UnauthorizedError

_GB = 1e9


@dataclass
class AssignmentResult:
    """Everything produced by the assignment pipeline.

    ``search_stats`` is populated by the exhaustive strategy (combination
    counts, pruning, and unauthorized skips); ``None`` otherwise.
    """

    assignment: dict[PlanNode, str]
    extended: ExtendedPlan
    keys: KeyAssignment
    cost: CostBreakdown
    candidates: CandidateAssignment
    search_stats: dict[str, int] | None = None
    #: The losing §6 portfolio proposals (fully extended, keyed, and
    #: costed), cheapest first.  The service layer keeps these as warm
    #: standby plans: when a provider in the chosen assignment dies
    #: mid-query, a standby that avoids it can be dispatched without
    #: re-planning.  Empty for single-proposal strategies.
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
    topology: NetworkTopology | None = None,
    requirements: Mapping[PlanNode, frozenset[str]] | None = None,
    capabilities: SchemeCapabilities | None = None,
    strategy: str = "dp",
    cache: AssignmentCache | None = None,
    edge_cache: "EdgeTableCache | None" = None,
) -> AssignmentResult:
    """Run the full §6 pipeline and return the cheapest authorized plan.

    ``cache`` optionally memoises
    full results across calls: hits require an identical plan structure
    and the same live policy/price-list/topology objects, and survive
    policy mutations whose deltas do not touch the plan's dependency
    footprint (see :mod:`repro.core.cache`).  ``edge_cache`` shares
    decomposed DP edge tables across queries.  Cached results are
    shared, not copied.

    Raises :class:`NoCandidateError` when some operation has no candidate
    and :class:`UnauthorizedError` when the querying user may not receive
    the query result.
    """
    subject_names = [
        s.name if isinstance(s, Subject) else s for s in subjects
    ]
    if requirements is None:
        requirements = infer_plaintext_requirements(plan, capabilities)
    cache_key = None
    depends = None
    if cache is not None:
        cache_key = assignment_cache_key(
            plan, policy, subject_names, user, owners,
            strategy, capabilities, requirements,
        )
        cache_context = (policy, prices, topology)
        depends = plan_dependencies(plan, subject_names, user, owners)
        hit = cache.get(cache_key, cache_context, policy=policy)
        if hit is not None:
            return _rebind_result(hit, plan)
    candidates = compute_candidates(plan, policy, subject_names,
                                    requirements)
    candidates.require_nonempty()
    if not user_can_receive_result(plan, policy, user, candidates.min_views):
        raise UnauthorizedError(
            f"user {user} is not authorized for the query result",
            subject=user,
        )

    schemes = chosen_schemes(plan, capabilities)
    topology = topology or NetworkTopology.paper_defaults(user)
    estimator = PlanEstimator(schemes)
    model = CostModel(prices, topology, estimator)
    if edge_cache is not None:
        edge_cache.begin(policy)
    searcher = _AssignmentSearch(
        plan=plan,
        policy=policy,
        candidates=candidates,
        requirements=requirements,
        schemes=schemes,
        prices=prices,
        estimator=estimator,
        owners=dict(owners or {}),
        user=user,
        edge_cache=edge_cache,
    )
    proposals: list[dict[PlanNode, str]] = []
    if strategy == "dp":
        # Portfolio: the DP's pairwise costs cannot see assignment-
        # dependent scheme choices exactly (§6's combined steps 2–3), so
        # propose optimistic and conservative searches plus the
        # no-provider baseline, then compare *exact* extended-plan costs.
        for mode in ("optimistic", "conservative"):
            searcher.edge_scheme_mode = mode
            try:
                proposals.append(searcher.dynamic_programming())
            except NoCandidateError:
                pass
        trusted = frozenset({user}) | frozenset((owners or {}).values())
        searcher.edge_scheme_mode = "optimistic"
        try:
            proposals.append(searcher.dynamic_programming(
                restrict_to=trusted))
        except NoCandidateError:
            pass
        if not proposals:
            raise NoCandidateError("no feasible assignment for the plan")
    elif strategy == "greedy":
        proposals.append(searcher.greedy())
    elif strategy == "exhaustive":
        proposals.append(searcher.exhaustive(model))
    else:
        raise ValueError(f"unknown assignment strategy {strategy!r}")

    best: AssignmentResult | None = None
    results: list[AssignmentResult] = []
    for assignment in proposals:
        extended = minimally_extend(
            plan, policy, assignment, requirements=requirements,
            owners=owners, deliver_to=user,
        )
        # §6: schemes depend on the chosen assignment — attributes
        # encrypted purely in transit get randomized encryption; only
        # attributes some assignee computes on encrypted need
        # det/OPE/Paillier.
        exact_schemes = schemes_for_extended_plan(extended, capabilities,
                                                  policy)
        keys = establish_keys(extended, policy, schemes=exact_schemes)
        exact_model = CostModel(prices, topology,
                                PlanEstimator(exact_schemes))
        cost = exact_model.extended_plan_cost(extended, user, owners)
        result = AssignmentResult(
            assignment=assignment,
            extended=extended,
            keys=keys,
            cost=cost,
            candidates=candidates,
            search_stats=searcher.exhaustive_stats,
        )
        results.append(result)
        if best is None or cost.total_usd < best.cost.total_usd:
            best = result
    assert best is not None
    # Distinct losing proposals become warm standby plans (failover).
    seen_assignments = [best.assignment]
    for result in sorted(results, key=lambda r: r.cost.total_usd):
        if result is best or result.assignment in seen_assignments:
            continue
        seen_assignments.append(result.assignment)
        best.portfolio += (result,)
    if cache is not None and cache_key is not None:
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
        search_stats=result.search_stats,
        # Standbys are self-contained (extended plan + keys only are
        # consumed on failover), so no rebinding is needed for them.
        portfolio=result.portfolio,
        derived=result.derived,
    )


class _AssignmentSearch:
    """Shared machinery of the three assignment strategies."""

    def __init__(self, plan: QueryPlan, policy: Policy,
                 candidates: CandidateAssignment,
                 requirements: Mapping[PlanNode, frozenset[str]],
                 schemes: Mapping[str, EncryptionScheme],
                 prices: PriceList, estimator: PlanEstimator,
                 owners: dict[str, str], user: str,
                 edge_cache: "EdgeTableCache | None" = None) -> None:
        self.plan = plan
        self.policy = policy
        self.candidates = candidates
        self.requirements = requirements
        self.schemes = schemes
        self.prices = prices
        self.estimator = estimator
        self.owners = owners
        self.user = user
        self.edge_cache = edge_cache
        self.estimates = estimator.estimate(plan)
        self._lineage = derived_lineage(plan)
        self._views: dict[str, SubjectView] = {}
        self._requirement_map: NodeMap[frozenset[str]] = NodeMap(requirements)
        # DP state, shared across the three portfolio passes.
        # With a cross-query edge cache, masks live in *its* universe so
        # cached tables and this search's subject masks stay congruent.
        self.universe = edge_cache.universe if edge_cache is not None \
            else AttributeUniverse()
        self._subject_masks: dict[str, tuple[int, int, float, float]] = {}
        self._node_cost_cache: dict[tuple[int, str], float] = {}
        self._edge_tables: dict[tuple[int, int, str], _EdgeTable] = {}
        self._delivery_cache: dict[str, float] = {}
        #: populated by :meth:`exhaustive`.
        self.exhaustive_stats: dict[str, int] | None = None

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def view(self, subject: str) -> SubjectView:
        if subject not in self._views:
            self._views[subject] = augment_view(
                self.policy.view(subject), self._lineage
            )
        return self._views[subject]

    def owner_of(self, leaf: BaseRelationNode) -> str:
        name = leaf.relation.name
        return self.owners.get(name, f"authority:{name}")

    def plaintext_needed(self, node: PlanNode) -> frozenset[str]:
        return self._requirement_map.get(node, frozenset())

    def subject_masks(self, name: str) -> tuple[int, int, float, float]:
        """(plaintext mask, encrypted mask, cpu $/s, net $/byte) of a subject.

        Synthetic ``authority:`` owners have no policy view and encrypt
        nothing of their own.
        """
        data = self._subject_masks.get(name)
        if data is None:
            rates = self.prices.rates(name)
            if name.startswith("authority:"):
                plain = encrypted = 0
            else:
                view = self.view(name)
                plain = self.universe.mask(view.plaintext)
                encrypted = self.universe.mask(view.encrypted)
            data = (plain, encrypted, rates.cpu_usd_per_second,
                    rates.net_usd_per_gb / _GB)
            self._subject_masks[name] = data
        return data

    def edge_table(self, child: PlanNode, parent: PlanNode) -> "_EdgeTable":
        """The decomposed cost tables of one plan edge (memoized per mode).

        With an :class:`EdgeTableCache` attached, structurally matching
        edges of other queries share the table; the cache reconciles its
        receiver rows against policy deltas and the identity check in
        :meth:`_EdgeTable.receiver` guards everything else.
        """
        key = (id(child), id(parent), self.edge_scheme_mode)
        table = self._edge_tables.get(key)
        if table is None:
            estimate = self.estimates[id(child)]
            operand_attrs = parent.operand_attributes()
            ap_attrs = self.plaintext_needed(parent)
            if self.edge_cache is not None:
                table = self.edge_cache.table(
                    estimate, operand_attrs, ap_attrs, self.schemes,
                    self.edge_scheme_mode,
                )
            else:
                table = _EdgeTable(self.universe, estimate, operand_attrs,
                                   ap_attrs, self.schemes,
                                   self.edge_scheme_mode)
            table.masks_of = self.subject_masks
            self._edge_tables[key] = table
        return table

    #: edge-scheme estimation mode: "optimistic" charges randomized
    #: encryption for pass-through attributes (underestimates deep
    #: chains), "conservative" always charges the demand-based scheme
    #: (overestimates transit-only encryption).  The portfolio strategy
    #: tries both and compares exact costs.
    edge_scheme_mode = "optimistic"

    def node_cost(self, node: PlanNode, subject: str) -> float:
        """CPU + IO cost of executing ``node`` at ``subject`` (memoized)."""
        key = (id(node), subject)
        cost = self._node_cost_cache.get(key)
        if cost is None:
            estimate = self.estimates[id(node)]
            rates = self.prices.rates(subject)
            cost = (estimate.cpu_seconds * rates.cpu_usd_per_second
                    + estimate.io_bytes / _GB * rates.io_usd_per_gb
                    + self._scheme_penalty(node, subject))
            self._node_cost_cache[key] = cost
        return cost

    def _scheme_penalty(self, node: PlanNode, subject: str) -> float:
        """Extra cost implied by running ``node`` at ``subject`` encrypted.

        §6 combines assignment and extension: assigning an addition- or
        order-demanding operation to a subject without plaintext
        visibility forces Paillier/OPE encryption upstream (and expensive
        decryption of the results downstream).  The penalty charges the
        scheme upgrade over randomized encryption at the operand
        cardinality, priced at the authority rate (the sources encrypt),
        plus the user-side decryption of the outputs.
        """
        view = self.view(subject)
        operand_rows = sum(
            self.estimates[id(child)].rows for child in node.children
        )
        authority_rate = max(
            (self.prices.rates(owner).cpu_usd_per_second
             for owner in self.owners.values()),
            default=self.prices.rates(self.user).cpu_usd_per_second,
        )
        penalty = 0.0
        for attribute, capability in _node_demands(node):
            if capability not in (EncryptedCapability.ADDITION,
                                  EncryptedCapability.ORDER):
                continue
            if view.can_view_plaintext(attribute):
                # Opportunistic decryption: a cheap randomized decrypt.
                penalty += (
                    operand_rows
                    * DECRYPT_SECONDS_PER_VALUE[EncryptionScheme.RANDOMIZED]
                    * self.prices.rates(subject).cpu_usd_per_second
                )
                continue
            scheme = (EncryptionScheme.PAILLIER
                      if capability is EncryptedCapability.ADDITION
                      else EncryptionScheme.OPE)
            upgrade = (ENCRYPT_SECONDS_PER_VALUE[scheme]
                       - ENCRYPT_SECONDS_PER_VALUE[
                           EncryptionScheme.RANDOMIZED])
            penalty += operand_rows * upgrade * authority_rate
            output_rows = self.estimates[id(node)].rows
            penalty += (
                output_rows * DECRYPT_SECONDS_PER_VALUE[scheme]
                * self.prices.rates(self.user).cpu_usd_per_second
            )
        return penalty

    def delivery_cost(self, root_subject: str) -> float:
        """Ship the result to the user and decrypt what arrives encrypted.

        Memoized: independent of the edge-scheme mode.
        """
        cost = self._delivery_cache.get(root_subject)
        if cost is not None:
            return cost
        estimate = self.estimates[id(self.plan.root)]
        cost = 0.0
        if root_subject != self.user:
            cost += (estimate.output_bytes / _GB
                     * self.prices.rates(root_subject).net_usd_per_gb)
        visible = frozenset(estimate.plain_width)
        encrypted_at_root = self.view(root_subject).encrypted & visible
        dec_seconds = 0.0
        for attribute in encrypted_at_root:
            scheme = self.schemes.get(attribute,
                                      EncryptionScheme.DETERMINISTIC)
            dec_seconds += estimate.rows * DECRYPT_SECONDS_PER_VALUE[scheme]
        cost += dec_seconds * self.prices.rates(self.user).cpu_usd_per_second
        self._delivery_cache[root_subject] = cost
        return cost

    # ------------------------------------------------------------------
    # Strategies
    # ------------------------------------------------------------------
    def dynamic_programming(self, restrict_to: frozenset[str] | None = None,
                            ) -> dict[PlanNode, str]:
        """Optimal assignment under the pairwise cost approximation.

        ``restrict_to`` limits the considered subjects (used by the
        portfolio to evaluate the no-provider baseline).  Raises
        :class:`NoCandidateError` when the restriction empties some
        operation's candidate set.

        Edge costs come from the per-edge tables, and the inner (child
        subject, parent subject) loop is inlined: per edge, the sender
        rows (name, accumulated cost, encrypted mask, rates) are
        materialised once and each pair evaluation is a table/memo
        lookup plus three multiply-adds.
        """
        table: dict[int, dict[str, float]] = {}
        choice: dict[int, dict[str, dict[int, str]]] = {}

        for node in self.plan.operations():
            table[id(node)] = {}
            choice[id(node)] = {}
            allowed = self.candidates[node]
            if restrict_to is not None:
                allowed = allowed & restrict_to
                if not allowed:
                    raise NoCandidateError(
                        f"restriction leaves no candidate for {node.label()}",
                        node=node,
                    )
            # Per child: the edge tables plus one row per sender —
            # (name, cost so far, encrypted mask, cpu $/s, net $/byte).
            children_info = []
            for child in node.children:
                edge = self.edge_table(child, node)
                if isinstance(child, BaseRelationNode):
                    owner = self.owner_of(child)
                    _p, enc_mask, cpu, net = self.subject_masks(owner)
                    rows = [(owner, self.node_cost(child, owner),
                             enc_mask, cpu, net)]
                    children_info.append((child, edge, True, rows))
                else:
                    rows = [
                        (sender, cost) + self.subject_masks(sender)[1:]
                        for sender, cost in table[id(child)].items()
                    ]
                    children_info.append((child, edge, False, rows))
            for subject in sorted(allowed):
                total = self.node_cost(node, subject)
                picks: dict[int, str] = {}
                feasible = True
                for child, edge, is_leaf, rows in children_info:
                    entry = edge.receiver(subject)
                    memo = entry.memo
                    memo_parts = edge.memo_parts
                    needs_volume = edge.base_bytes + entry.vol_needs_bytes
                    total_enc = entry.total_enc_seconds
                    receiver_dec = entry.cpu_rate
                    dec_base = entry.dec_base_seconds
                    visible = edge.visible_mask
                    best_cost = None
                    best_subject = None
                    for sender, cost, enc_mask, cpu, net in rows:
                        mask = enc_mask & visible
                        parts = memo.get(mask)
                        if parts is None:
                            parts = memo_parts(entry, mask)
                        cost += cpu * (total_enc - parts[0])
                        if sender != subject:
                            cost += (needs_volume + parts[1]) * net
                        cost += receiver_dec * (dec_base + parts[2])
                        if best_cost is None or cost < best_cost:
                            best_cost = cost
                            best_subject = sender
                    if best_subject is None:
                        feasible = False
                        break
                    total += best_cost
                    if not is_leaf:
                        picks[id(child)] = best_subject
                if feasible:
                    table[id(node)][subject] = total
                    choice[id(node)][subject] = picks

        root = self.plan.root
        root_costs = {
            subject: cost + self.delivery_cost(subject)
            for subject, cost in table[id(root)].items()
        }
        if not root_costs:
            raise NoCandidateError(
                "no feasible assignment for the plan root", node=root
            )
        best_root = min(root_costs, key=root_costs.__getitem__)

        assignment: dict[PlanNode, str] = {}

        def backtrack(node: PlanNode, subject: str) -> None:
            assignment[node] = subject
            for child in node.children:
                if isinstance(child, BaseRelationNode):
                    continue
                backtrack(child, choice[id(node)][subject][id(child)])

        backtrack(root, best_root)
        return assignment

    def greedy(self) -> dict[PlanNode, str]:
        """Cheapest-subject-per-node baseline (ignores edge effects)."""
        assignment: dict[PlanNode, str] = {}
        for node in self.plan.operations():
            names = self.candidates[node]
            if not names:
                raise NoCandidateError(
                    f"no candidate for {node.label()}", node=node
                )
            assignment[node] = min(
                names, key=lambda s: (self.node_cost(node, s), s)
            )
        return assignment

    def exhaustive(self, model: CostModel) -> dict[PlanNode, str]:
        """Exact search: materialize assignments, pruning by lower bound.

        A depth-first enumeration over the candidate domains.  Every
        node's exact extended-plan cost is bounded below by its CPU
        charge at its assignee (encryption only *adds* operations and
        never shrinks rows), so a partial assignment whose accumulated
        CPU bound plus the best-case bound of the remaining operations
        already meets the incumbent cannot improve on it and its whole
        subtree is pruned.  Combinations whose minimal extension raises
        :class:`UnauthorizedError` (assignments outside Λ's reachable
        extensions) are counted, not silently dropped; the counts are
        reported in :attr:`exhaustive_stats` and in the
        :class:`NoCandidateError` raised when nothing is feasible.
        """
        operations = list(self.plan.operations())
        domains = [sorted(self.candidates[n]) for n in operations]
        combination_count = 1
        for domain in domains:
            combination_count *= len(domain)
        if combination_count > 50_000:
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
        self.exhaustive_stats = stats

        def cpu_bound(node: PlanNode, subject: str) -> float:
            return (self.estimates[id(node)].cpu_seconds
                    * self.prices.rates(subject).cpu_usd_per_second)

        # CPU charged to the data authorities is combination-independent.
        leaf_floor = sum(
            cpu_bound(leaf, self.owner_of(leaf))
            for leaf in self.plan.leaves()
        )
        bounds = [
            {subject: cpu_bound(node, subject) for subject in domain}
            for node, domain in zip(operations, domains)
        ]
        suffix_floor = [0.0] * (len(operations) + 1)
        for index in range(len(operations) - 1, -1, -1):
            suffix_floor[index] = (suffix_floor[index + 1]
                                   + min(bounds[index].values()))
        subtree_size = [1] * (len(operations) + 1)
        for index in range(len(operations) - 1, -1, -1):
            subtree_size[index] = (subtree_size[index + 1]
                                   * len(domains[index]))

        best_cost: float | None = None
        best_assignment: dict[PlanNode, str] | None = None
        chosen: list[str] = []

        def visit(index: int, floor: float) -> None:
            nonlocal best_cost, best_assignment
            if best_cost is not None \
                    and floor + suffix_floor[index] >= best_cost:
                stats["pruned"] += subtree_size[index]
                return
            if index == len(operations):
                assignment = dict(zip(operations, chosen))
                try:
                    extended = minimally_extend(
                        self.plan, self.policy, assignment,
                        requirements=self.requirements, owners=self.owners,
                        deliver_to=self.user,
                    )
                except UnauthorizedError:
                    stats["skipped_unauthorized"] += 1
                    return
                stats["evaluated"] += 1
                cost = model.extended_plan_cost(
                    extended, self.user, self.owners
                ).total_usd
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
        return best_assignment


class _ReceiverEntry:
    """Per-(edge, receiver) precomputation of the decomposed edge cost.

    ``identity`` records the (plain mask, enc mask, cpu rate) the entry
    was built from; :meth:`_EdgeTable.receiver` rebuilds the entry when
    the subject's current masks no longer match, which makes cached
    tables safe across policy and price changes by construction.
    """

    __slots__ = ("needs_mask", "enc_w", "delta_w", "total_enc_seconds",
                 "vol_needs_bytes", "dec_base_seconds", "cpu_rate",
                 "identity", "memo")

    def __init__(self, needs_mask: int, enc_w: dict[int, float],
                 delta_w: dict[int, float], total_enc_seconds: float,
                 vol_needs_bytes: float, dec_base_seconds: float,
                 cpu_rate: float,
                 identity: tuple[int, int, float]) -> None:
        self.needs_mask = needs_mask
        self.enc_w = enc_w
        self.delta_w = delta_w
        self.total_enc_seconds = total_enc_seconds
        self.vol_needs_bytes = vol_needs_bytes
        self.dec_base_seconds = dec_base_seconds
        self.cpu_rate = cpu_rate
        self.identity = identity
        #: sender-encrypted-mask → (enc overlap s, extra volume B, extra dec s)
        self.memo: dict[int, tuple[float, float, float]] = {}


class _EdgeTable:
    """Approximate cost of handing a child's output to the parent's subject.

    An edge costs: encryption at the sender of the visible attributes
    the receiver may only see encrypted (skipping those the sender
    itself already held encrypted), the network transfer of the
    (partially encrypted) output, and decryption at the receiver of the
    attributes the parent operation needs in plaintext.  An attribute
    the receiver may see in plaintext travels randomized (note 2 /
    opportunistic decryption); otherwise one the parent computes on — or
    any, in ``"conservative"`` mode — needs the scheme its capability
    demands, and one merely passing through only randomized encryption
    (§6's highest-protection rule).

    For a fixed (child, parent) edge that pairwise cost factors into

    * a **receiver part** — which visible attributes the receiver may
      only see encrypted (``needs``), the scheme each attribute travels
      under, the encryption seconds if the sender held everything
      plaintext, the ciphertext volume inflation of ``needs``, and the
      receiver-side decryption of ``Ap ∩ needs``;
    * a **sender part** — the attributes the sender already holds
      encrypted, as one bitmask ``m``, plus its CPU/egress rates;
    * a **coupling correction** depending only on ``(receiver, m)`` —
      encryption work saved on ``needs ∧ m``, extra ciphertext volume and
      extra ``Ap`` decryption from ``m ∖ needs`` — memoized per distinct
      sender mask, of which there are few (providers share policies).

    ``cost(sender, receiver)`` is then three multiply-adds, reproducing
    the per-pair formula (``tests/oracles/dp_reference.py``) exactly, up
    to float reassociation.

    Construction is pure-value — the table reads only the child's
    estimate, the parent's operand/``Ap`` attributes, the scheme map and
    the mode — so structurally matching edges of *different* queries can
    share one table through :class:`EdgeTableCache`.  The policy- and
    price-dependent receiver parts are rebuilt lazily: every lookup
    passes the subject's current ``(plain, enc, cpu)`` masks and a stale
    entry (mismatching identity) is rebuilt on the spot, so a cached
    table can never serve receiver rows computed under an older policy.
    """

    __slots__ = ("mode", "rows", "bits", "visible_mask",
                 "demand_bits", "none_mask", "base_bytes", "ap_mask", "dec_w",
                 "enc_rand", "enc_demand", "delta_rand", "delta_demand",
                 "receivers", "masks_of")

    def __init__(self, universe: AttributeUniverse, estimate: NodeEstimate,
                 operand_attrs: Iterable[str], ap_attrs: Iterable[str],
                 schemes: Mapping[str, EncryptionScheme], mode: str) -> None:
        self.mode = mode
        rows = estimate.rows
        self.rows = rows
        self.bits = tuple(universe.bit(a) for a in estimate.plain_width)
        self.visible_mask = universe.mask(estimate.plain_width)
        operand_mask = universe.mask(operand_attrs)
        self.none_mask = universe.mask(
            a for a in estimate.plain_width if estimate.scheme.get(a) is None
        )
        self.base_bytes = rows * sum(
            estimate.width_of(a) for a in estimate.plain_width
        )
        self.ap_mask = universe.mask(ap_attrs) & self.visible_mask
        # An attribute travels under one of two schemes: randomized, or
        # the scheme its capability demands (mode/operand dependent) —
        # precompute both weight tables so receiver entries are lookups.
        randomized = EncryptionScheme.RANDOMIZED
        enc_rand = rows * ENCRYPT_SECONDS_PER_VALUE[randomized]
        self.enc_rand = enc_rand
        conservative = mode == "conservative"
        demand_bits = 0
        enc_demand: dict[int, float] = {}
        delta_rand: dict[int, float] = {}
        delta_demand: dict[int, float] = {}
        dec_w: dict[int, float] = {}
        for attribute, bit in zip(estimate.plain_width, self.bits):
            demand_scheme = schemes.get(
                attribute, EncryptionScheme.DETERMINISTIC)
            if conservative or bit & operand_mask:
                demand_bits |= bit
                enc_demand[bit] = rows * ENCRYPT_SECONDS_PER_VALUE[
                    demand_scheme]
            if bit & self.none_mask:
                plain_w = estimate.plain_width[attribute]
                delta_rand[bit] = rows * (
                    encrypted_width(randomized, plain_w) - plain_w
                )
                delta_demand[bit] = rows * (
                    encrypted_width(demand_scheme, plain_w) - plain_w
                )
            if bit & self.ap_mask:
                dec_w[bit] = rows * DECRYPT_SECONDS_PER_VALUE[demand_scheme]
        self.demand_bits = demand_bits
        self.enc_demand = enc_demand
        self.delta_rand = delta_rand
        self.delta_demand = delta_demand
        self.dec_w = dec_w
        self.receivers: dict[str, _ReceiverEntry] = {}
        #: subject name → (plain mask, enc mask, cpu $/s, net $/byte);
        #: rebound by every search that picks the table up.
        self.masks_of = None

    def receiver(self, name: str) -> _ReceiverEntry:
        """The receiver part for one subject (rebuilt when its masks move)."""
        plain_mask, enc_mask, cpu_rate, _net = self.masks_of(name)
        identity = (plain_mask, enc_mask, cpu_rate)
        entry = self.receivers.get(name)
        if entry is None or entry.identity != identity:
            needs = enc_mask & self.visible_mask
            # The scheme per attribute, mask-backed: attributes the
            # receiver may see plaintext travel randomized; otherwise the
            # demand scheme applies on demand_bits, randomized elsewhere.
            demand = self.demand_bits & ~plain_mask
            enc_w: dict[int, float] = {}
            delta_w: dict[int, float] = {}
            total_enc = 0.0
            vol_needs = 0.0
            dec_base = 0.0
            enc_rand = self.enc_rand
            enc_demand = self.enc_demand
            delta_rand = self.delta_rand
            delta_demand = self.delta_demand
            none_mask = self.none_mask
            ap_mask = self.ap_mask
            dec_w = self.dec_w
            for bit in self.bits:
                demanded = bit & demand
                if bit & needs:
                    weight = enc_demand[bit] if demanded else enc_rand
                    enc_w[bit] = weight
                    total_enc += weight
                if bit & none_mask:
                    delta = (delta_demand[bit] if demanded
                             else delta_rand[bit])
                    delta_w[bit] = delta
                    if bit & needs:
                        vol_needs += delta
                if bit & needs and bit & ap_mask:
                    dec_base += dec_w[bit]
            entry = _ReceiverEntry(needs, enc_w, delta_w, total_enc,
                                   vol_needs, dec_base, cpu_rate, identity)
            self.receivers[name] = entry
        return entry

    def memo_parts(self, entry: _ReceiverEntry,
                   mask: int) -> tuple[float, float, float]:
        """Coupling corrections for one sender-encrypted ``mask``.

        Returns (encryption seconds already covered by the sender, extra
        ciphertext volume in bytes from sender-encrypted pass-through
        attributes, extra ``Ap`` decryption seconds at the receiver);
        memoized on the entry per distinct mask.
        """
        enc_overlap = 0.0
        overlap = mask & entry.needs_mask
        while overlap:
            low = overlap & -overlap
            overlap ^= low
            enc_overlap += entry.enc_w[low]
        extra = mask & ~entry.needs_mask
        extra_vol = 0.0
        vol_bits = extra & self.none_mask
        while vol_bits:
            low = vol_bits & -vol_bits
            vol_bits ^= low
            extra_vol += entry.delta_w[low]
        dec_extra = 0.0
        dec_bits = extra & self.ap_mask
        while dec_bits:
            low = dec_bits & -dec_bits
            dec_bits ^= low
            dec_extra += self.dec_w[low]
        parts = (enc_overlap, extra_vol, dec_extra)
        entry.memo[mask] = parts
        return parts

    def cost(self, sender: str, receiver: str) -> float:
        """Exact edge cost of handing the child's output sender→receiver."""
        _plain, sender_enc, sender_cpu, sender_net = self.masks_of(sender)
        entry = self.receiver(receiver)
        mask = sender_enc & self.visible_mask
        parts = entry.memo.get(mask)
        if parts is None:
            parts = self.memo_parts(entry, mask)
        enc_overlap, extra_vol, dec_extra = parts
        cost = sender_cpu * (entry.total_enc_seconds - enc_overlap)
        if sender != receiver:
            cost += ((self.base_bytes + entry.vol_needs_bytes + extra_vol)
                     * sender_net)
        cost += entry.cpu_rate * (entry.dec_base_seconds + dec_extra)
        return cost


class EdgeTableCache:
    """Cross-query cache of decomposed edge-cost tables.

    Distinct queries over the same federation keep re-deriving identical
    DP substructure: an edge whose child estimate (rows, per-attribute
    widths and encryption states), parent operand/``Ap`` attributes,
    scheme choices and mode all match produces the *same*
    :class:`_EdgeTable` regardless of which plan it came from.  This
    cache keys tables by exactly that value signature, over one shared
    :class:`AttributeUniverse` so masks from different queries are
    congruent, and lets every :func:`assign` call that passes
    ``edge_cache=`` reuse them.

    Policy churn is reconciled per subject: :meth:`begin` walks the
    delta journal and drops the receiver rows (the only policy-dependent
    part of a table) of touched subjects from tables whose visible
    attributes intersect the delta's touched mask — the (profile-mask,
    view-mask) granularity of the reconcile contract in
    :mod:`repro.core.cache`.  The identity check in
    :meth:`_EdgeTable.receiver` independently guarantees correctness
    (a stale row can never be served), so the reconcile pass is about
    hygiene and observability, not safety.
    """

    def __init__(self, maxsize: int = 512) -> None:
        self.universe = AttributeUniverse()
        #: value signature → _EdgeTable.
        self._tables = LRU(maxsize)
        self._policy: Policy | None = None
        self._version: int | None = None
        self._kept = 0
        self._patched = 0
        self._evicted = 0
        self._flushed = 0

    @staticmethod
    def signature(estimate: NodeEstimate, operand_attrs: Iterable[str],
                  ap_attrs: Iterable[str],
                  schemes: Mapping[str, EncryptionScheme],
                  mode: str) -> tuple:
        """The value signature capturing every input of ``_EdgeTable``."""
        visible = tuple(sorted(estimate.plain_width))
        per_attr = tuple(
            (
                name,
                estimate.plain_width[name],
                getattr(estimate.scheme.get(name), "value", None),
                schemes.get(name, EncryptionScheme.DETERMINISTIC).value,
            )
            for name in visible
        )
        return (
            mode,
            estimate.rows,
            per_attr,
            tuple(sorted(frozenset(operand_attrs) & set(visible))),
            tuple(sorted(frozenset(ap_attrs) & set(visible))),
        )

    def table(self, estimate: NodeEstimate, operand_attrs: Iterable[str],
              ap_attrs: Iterable[str],
              schemes: Mapping[str, EncryptionScheme],
              mode: str) -> _EdgeTable:
        """The cached table for this edge signature, built on first use."""
        key = self.signature(estimate, operand_attrs, ap_attrs, schemes,
                             mode)
        table = self._tables.get(key)
        if table is None:
            table = _EdgeTable(self.universe, estimate, operand_attrs,
                               ap_attrs, schemes, mode)
            self._tables.put(key, table)
        return table

    def begin(self, policy: Policy) -> None:
        """Reconcile cached receiver rows against ``policy``'s deltas.

        Called at the start of every search using this cache.  A policy
        object switch or a truncated journal drops every receiver row
        (``flushed``); otherwise each delta surgically drops the touched
        subject's rows from tables whose visible attributes intersect
        the delta's touched mask (``evicted``/``patched``), leaving
        disjoint rows warm (``kept``).
        """
        if policy is self._policy and policy.version == self._version:
            return
        deltas = None if self._policy is not policy \
            else policy.deltas_since(self._version)
        self._policy = policy
        self._version = policy.version
        if deltas is None:
            for table in self._tables.values():
                self._flushed += len(table.receivers)
                table.receivers.clear()
            return
        universe = self.universe
        for table in self._tables.values():
            before = len(table.receivers)
            for delta in deltas:
                if not table.receivers:
                    break
                if not (universe.delta_mask(delta) & table.visible_mask):
                    continue
                if delta.any_subject:
                    self._evicted += len(table.receivers)
                    table.receivers.clear()
                elif table.receivers.pop(delta.subject, None) is not None:
                    self._evicted += 1
            self._kept += len(table.receivers)
            self._patched += 1 if len(table.receivers) != before else 0

    def info(self) -> dict[str, int]:
        """Hit/miss/size counters plus receiver-row reconcile statistics."""
        return {
            **self._tables.info(),
            "tables": len(self._tables),
            "reconcile_kept": self._kept,
            "reconcile_patched": self._patched,
            "reconcile_evicted": self._evicted,
            "reconcile_flushed": self._flushed,
        }
