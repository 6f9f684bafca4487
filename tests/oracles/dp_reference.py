"""The direct per-pair assignment DP the decomposed search was derived from.

Every function takes the production ``_AssignmentSearch`` as its first
argument, so a test binds :func:`dp_reference` in as the search's
``dynamic_programming`` method and runs the whole §6 pipeline on it.
"""

from __future__ import annotations

from repro.core.operators import BaseRelationNode, PlanNode
from repro.core.requirements import EncryptionScheme
from repro.cost.factors import (
    DECRYPT_SECONDS_PER_VALUE,
    ENCRYPT_SECONDS_PER_VALUE,
)
from repro.exceptions import NoCandidateError

_GB = 1e9


def edge_scheme(search, attribute: str, parent: PlanNode,
                receiver: str) -> EncryptionScheme:
    """Scheme charged when encrypting ``attribute`` for ``parent``.

    A receiver authorized for the attribute's plaintext computes in the
    clear (note 2 / opportunistic decryption), so transit needs only
    randomized encryption.  Otherwise, attributes the parent operation
    computes on need the scheme their capability demands; attributes
    merely passing through need only randomized encryption (§6's
    highest-protection rule).
    """
    if search.view(receiver).can_view_plaintext(attribute):
        return EncryptionScheme.RANDOMIZED
    if search.edge_scheme_mode == "conservative" \
            or attribute in parent.operand_attributes():
        return search.schemes.get(attribute, EncryptionScheme.DETERMINISTIC)
    return EncryptionScheme.RANDOMIZED


def edge_cost(search, child: PlanNode, sender: str,
              parent: PlanNode, receiver: str) -> float:
    """Approximate cost of handing ``child``'s output to ``receiver``.

    Covers: encryption at the sender of visible attributes the receiver
    may only see encrypted (skipping attributes the sender itself
    already held encrypted), the network transfer of the (partially
    encrypted) output, and decryption at the receiver of attributes the
    parent operation needs in plaintext.
    """
    estimate = search.estimates[child]
    receiver_view = search.view(receiver)
    visible = frozenset(estimate.plain_width)
    needs_encrypted = receiver_view.encrypted & visible
    sender_view = search.view(sender) if not sender.startswith(
        "authority:") else None
    already_encrypted = (sender_view.encrypted & visible
                         if sender_view is not None else frozenset())
    to_encrypt = needs_encrypted - already_encrypted
    enc_seconds = 0.0
    for attribute in to_encrypt:
        scheme = edge_scheme(search, attribute, parent, receiver)
        enc_seconds += estimate.rows * ENCRYPT_SECONDS_PER_VALUE[scheme]
    cost = enc_seconds * search.prices.rates(sender).cpu_usd_per_second

    edge_schemes = {
        attribute: edge_scheme(search, attribute, parent, receiver)
        for attribute in visible
    }
    volume = estimate.bytes_if_encrypted(
        needs_encrypted | already_encrypted, edge_schemes
    )
    if sender != receiver:
        cost += volume / _GB * search.prices.rates(sender).net_usd_per_gb

    to_decrypt = search.plaintext_needed(parent) & frozenset(
        needs_encrypted | already_encrypted
    )
    dec_seconds = 0.0
    for attribute in to_decrypt:
        scheme = search.schemes.get(attribute,
                                    EncryptionScheme.DETERMINISTIC)
        dec_seconds += estimate.rows * DECRYPT_SECONDS_PER_VALUE[scheme]
    cost += dec_seconds * search.prices.rates(receiver).cpu_usd_per_second
    return cost


def dp_reference(search, restrict_to: frozenset[str] | None = None,
                 ) -> dict[PlanNode, str]:
    """Optimal assignment under :func:`edge_cost`, pair by pair."""
    table: dict[PlanNode, dict[str, float]] = {}
    choice: dict[PlanNode, dict[str, dict[PlanNode, str]]] = {}

    for node in search.plan.operations():
        table[node] = {}
        choice[node] = {}
        allowed = search.candidates[node]
        if restrict_to is not None:
            allowed = allowed & restrict_to
            if not allowed:
                raise NoCandidateError(
                    f"restriction leaves no candidate for {node.label()}",
                    node=node,
                )
        for subject in allowed:
            total = search.node_cost(node, subject)
            picks: dict[PlanNode, str] = {}
            feasible = True
            for child in node.children:
                if isinstance(child, BaseRelationNode):
                    owner = search.owner_of(child)
                    total += search.node_cost(child, owner)
                    total += edge_cost(search, child, owner, node, subject)
                    continue
                best_cost = None
                best_subject = None
                for child_subject, child_cost in table[child].items():
                    candidate_cost = child_cost + edge_cost(
                        search, child, child_subject, node, subject
                    )
                    if best_cost is None or candidate_cost < best_cost:
                        best_cost = candidate_cost
                        best_subject = child_subject
                if best_subject is None:
                    feasible = False
                    break
                total += best_cost
                picks[child] = best_subject
            if feasible:
                table[node][subject] = total
                choice[node][subject] = picks

    root = search.plan.root
    root_costs = {
        subject: cost + search.delivery_cost(subject)
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
