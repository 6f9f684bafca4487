"""The §6 search: a dynamic program over (node, subject) states.

"Our implementation is based on a dynamic programming strategy to
explore the possible assignments of candidates to operators" (§6).
:class:`_AssignmentSearch` holds one plan's search state — subject
masks, per-(node, subject) execution costs, the per-edge cost tables of
:mod:`repro.core.edgecost` — and
:meth:`~_AssignmentSearch.dynamic_programming` returns the assignment
that is optimal *under the pairwise cost approximation*: node costs
plus, per plan edge, the cost of handing the child's output from its
subject to the parent's.

Contract: the search proposes, it does not decide.  §6 combines
assignment and extension, so the edge costs price the encryption and
decryption each (child subject, parent subject) pair implies; scheme
choices that depend on the whole assignment are only approximated
(``edge_scheme_mode``), and :func:`repro.core.assignment.assign`
compares the proposals of several passes at exact cost.  ``node_cost``
and the edge tables are shared across passes; the direct per-pair
computation this was derived from is the oracle of the equivalence
tests (``tests/oracles/dp_reference.py``).
"""

from __future__ import annotations

from typing import Mapping

from repro.core.attrsets import AttributeUniverse
from repro.core.authorization import (
    Policy,
    SubjectView,
    holder_of,
    stands_in_for,
)
from repro.core.candidates import CandidateAssignment
from repro.core.edgecost import EdgeTableCache, _EdgeTable, _ReceiverEntry
from repro.core.lineage import augment_view, derived_lineage
from repro.core.operators import BaseRelationNode, PlanNode
from repro.core.plan import QueryPlan
from repro.core.predicates import EncryptedCapability
from repro.core.requirements import EncryptionScheme, _node_demands
from repro.cost.estimator import PlanEstimator
from repro.cost.factors import (
    DECRYPT_SECONDS_PER_VALUE,
    ENCRYPT_SECONDS_PER_VALUE,
)
from repro.cost.pricing import PriceList
from repro.exceptions import NoCandidateError

_GB = 1e9


class _Senders:
    """One child edge's sender rows in one pass, and those that can win.

    Rows are (name, cost so far, visible encrypted mask, cpu $/s,
    net $/byte) in table order.  For one receiver and one mask a pair
    costs ``((acc + cpu·A) + B·net) + C`` with A, B, C fixed by
    (receiver, mask); with A, B ≥ 0 every step is monotone under IEEE
    rounding.  So a row no better than an *earlier* row of its mask on
    all of acc, cpu and net is never the first strict minimum the full
    scan picks, and :attr:`kept` drops it.  :meth:`for_receiver` adds
    back the receiver's own row (it pays no transfer to itself) and
    every row of a mask whose A or B came out negative: A is a
    difference of sums taken in different orders and can be −1 ulp.
    """

    __slots__ = ("rows", "kept", "dropped")

    def __init__(self, rows: list[tuple]) -> None:
        self.rows = rows
        self.kept: list[tuple] = []
        #: mask → name → (index in ``kept`` it sorts before, row)
        self.dropped: dict[int, dict[str, tuple[int, tuple]]] = {}
        by_mask: dict[int, list[tuple]] = {}
        for row in rows:
            _name, cost, mask, cpu, net = row
            group = by_mask.setdefault(mask, [])
            if any(c <= cost and p <= cpu and n <= net
                   for _s, c, _m, p, n in group):
                self.dropped.setdefault(mask, {})[row[0]] = (
                    len(self.kept), row)
            else:
                group.append(row)
                self.kept.append(row)

    def for_receiver(self, subject: str, entry: _ReceiverEntry,
                     edge: _EdgeTable) -> list[tuple]:
        """The rows to score for ``subject``, in table order."""
        if not self.dropped:
            return self.kept
        needs_volume = edge.base_bytes + entry.vol_needs_bytes
        unsafe: set[int] = set()
        own = None
        for mask, dropped in self.dropped.items():
            parts = entry.memo.get(mask) or edge.memo_parts(entry, mask)
            if entry.total_enc_seconds - parts[0] < 0.0 \
                    or needs_volume + parts[1] < 0.0:
                unsafe.add(mask)
            elif own is None:
                own = dropped.get(subject)
        if unsafe:
            return [row for row in self.rows
                    if row[2] in unsafe or row[0] == subject
                    or row[0] not in self.dropped.get(row[2], ())]
        if own is None:
            return self.kept
        at, row = own
        return self.kept[:at] + [row] + self.kept[at:]


class _AssignmentSearch:
    """One plan's search state, shared by the portfolio's DP passes."""

    def __init__(self, plan: QueryPlan, policy: Policy,
                 candidates: CandidateAssignment,
                 requirements: Mapping[PlanNode, frozenset[str]],
                 schemes: Mapping[str, EncryptionScheme],
                 prices: PriceList, estimator: PlanEstimator,
                 owners: dict[str, str], user: str,
                 edge_cache: EdgeTableCache | None = None) -> None:
        self.plan = plan
        self.policy = policy
        self.candidates = candidates
        self.schemes = schemes
        self.prices = prices
        self.owners = owners
        self.user = user
        self.edge_cache = edge_cache
        self.estimates = estimator.estimate(plan)
        self._lineage = derived_lineage(plan)
        self._views: dict[str, SubjectView] = {}
        self._requirements = requirements
        # DP state, shared across the three portfolio passes.
        # With a cross-query edge cache, masks live in *its* universe so
        # cached tables and this search's subject masks stay congruent.
        self.universe = edge_cache.universe if edge_cache is not None \
            else AttributeUniverse()
        self._subject_masks: dict[str, tuple[int, int, float, float]] = {}
        self._node_cost_cache: dict[tuple[PlanNode, str], float] = {}
        self._edge_tables: dict[tuple[PlanNode, PlanNode, str],
                                _EdgeTable] = {}
        self._delivery_cache: dict[str, float] = {}
        self._authority_rate = max(
            (prices.rates(owner).cpu_usd_per_second
             for owner in owners.values()),
            default=prices.rates(user).cpu_usd_per_second,
        )

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
        return holder_of(leaf.relation.name, self.owners)

    def plaintext_needed(self, node: PlanNode) -> frozenset[str]:
        return self._requirements.get(node, frozenset())

    def subject_masks(self, name: str) -> tuple[int, int, float, float]:
        """(plaintext mask, encrypted mask, cpu $/s, net $/byte) of a subject.

        A stand-in has no policy view and encrypts nothing of its own.
        """
        data = self._subject_masks.get(name)
        if data is None:
            rates = self.prices.rates(name)
            if stands_in_for(name) is not None:
                plain = encrypted = 0
            else:
                view = self.view(name)
                plain = self.universe.mask(view.plaintext)
                encrypted = self.universe.mask(view.encrypted)
            data = (plain, encrypted, rates.cpu_usd_per_second,
                    rates.net_usd_per_gb / _GB)
            self._subject_masks[name] = data
        return data

    def edge_table(self, child: PlanNode, parent: PlanNode) -> _EdgeTable:
        """The decomposed cost tables of one plan edge (memoized per mode).

        With an :class:`EdgeTableCache` attached, structurally matching
        edges of other queries share the table; the identity check in
        :meth:`_EdgeTable.receiver` keeps its receiver rows current.
        """
        key = (child, parent, self.edge_scheme_mode)
        table = self._edge_tables.get(key)
        if table is None:
            estimate = self.estimates[child]
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
        key = (node, subject)
        cost = self._node_cost_cache.get(key)
        if cost is None:
            estimate = self.estimates[node]
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
            self.estimates[child].rows for child in node.children
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
            penalty += operand_rows * upgrade * self._authority_rate
            output_rows = self.estimates[node].rows
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
        estimate = self.estimates[self.plan.root]
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
    # The search
    # ------------------------------------------------------------------
    def dynamic_programming(self, restrict_to: frozenset[str] | None = None,
                            ) -> dict[PlanNode, str]:
        """Optimal assignment under the pairwise cost approximation.

        ``restrict_to`` limits the considered subjects (used by the
        portfolio to evaluate the no-provider baseline).  Raises
        :class:`NoCandidateError` when the restriction empties some
        operation's candidate set.

        Edge costs come from the per-edge tables; the inner (child
        subject, parent subject) loop is inlined over each edge's
        frontier (:class:`_Senders`), a table/memo lookup plus three
        multiply-adds per pair.
        """
        table: dict[PlanNode, dict[str, float]] = {}
        choice: dict[PlanNode, dict[str, dict[PlanNode, str]]] = {}

        for node in self.plan.operations():
            table[node] = {}
            choice[node] = {}
            allowed = self.candidates[node]
            if restrict_to is not None:
                allowed = allowed & restrict_to
                if not allowed:
                    raise NoCandidateError(
                        f"restriction leaves no candidate for {node.label()}",
                        node=node,
                    )
            children_info = []
            for child in node.children:
                edge = self.edge_table(child, node)
                is_leaf = isinstance(child, BaseRelationNode)
                if is_leaf:
                    owner = self.owner_of(child)
                    costs = ((owner, self.node_cost(child, owner)),)
                else:
                    costs = table[child].items()
                rows = []
                for sender, cost in costs:
                    _p, enc_mask, cpu, net = self.subject_masks(sender)
                    rows.append((sender, cost, enc_mask & edge.visible_mask,
                                 cpu, net))
                children_info.append((child, edge, is_leaf, _Senders(rows)))
            for subject in sorted(allowed):
                total = self.node_cost(node, subject)
                picks: dict[PlanNode, str] = {}
                feasible = True
                for child, edge, is_leaf, senders in children_info:
                    entry = edge.receiver(subject)
                    memo = entry.memo
                    memo_parts = edge.memo_parts
                    needs_volume = edge.base_bytes + entry.vol_needs_bytes
                    total_enc = entry.total_enc_seconds
                    receiver_dec = entry.cpu_rate
                    dec_base = entry.dec_base_seconds
                    best_cost = None
                    best_subject = None
                    for sender, cost, mask, cpu, net in senders.for_receiver(
                            subject, entry, edge):
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
                        picks[child] = best_subject
                if feasible:
                    table[node][subject] = total
                    choice[node][subject] = picks

        root = self.plan.root
        root_costs = {
            subject: cost + self.delivery_cost(subject)
            for subject, cost in table[root].items()
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
                backtrack(child, choice[node][subject][child])

        backtrack(root, best_root)
        return assignment
