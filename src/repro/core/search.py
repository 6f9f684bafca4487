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
from repro.core.edgecost import EdgeTableCache, _EdgeTable
from repro.core.lineage import augment_view, derived_lineage
from repro.core.operators import BaseRelationNode, PlanNode
from repro.core.plan import NodeMap, QueryPlan
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
        return self._requirement_map.get(node, frozenset())

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
    # The search
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
