"""Plaintext-requirement sets ``Ap`` and encryption-scheme selection (§5–6).

Section 5 of the paper assumes that, for every operation, the query
optimizer specifies the set ``Ap`` of operand attributes that must be
available *in plaintext* because no available encryption scheme supports
the operation ("for operations that are not supported by cryptographic
techniques ... we assume the optimizer to specify the need for maintaining
data in plaintext").  Section 6 describes the scheme-selection rule: each
attribute gets the scheme providing the highest protection while still
supporting the operations executed on its encrypted values.

This module implements that optimizer logic:

* :func:`select_scheme` — the highest-protection scheme supporting a set
  of required capabilities, if any, among the four families the paper's
  tool offers (randomized + deterministic symmetric encryption, Paillier,
  and an OPE scheme — all of them, always);
* :func:`infer_plaintext_requirements` — compute ``Ap`` for every node of
  a plan, tracking attribute *instances*: an aggregate or udf output is a
  new instance whose encrypted form only supports what its producing
  operation left possible (e.g., a Paillier-encrypted ``avg(P)`` supports
  further additions but not range comparisons, which is why the final
  selection of the running example needs ``avg(P)`` in plaintext).
"""

from __future__ import annotations

import enum
from typing import Mapping

from repro.core.operators import AggregateFunction, GroupBy, PlanNode, Udf
from repro.core.plan import QueryPlan
from repro.core.predicates import EncryptedCapability


class EncryptionScheme(enum.Enum):
    """The four scheme families of the paper's tool (§7), by protection.

    Protection decreases down the list: randomized reveals nothing,
    Paillier is randomized but additively malleable, deterministic leaks
    equality, OPE leaks order.
    """

    RANDOMIZED = "randomized"
    PAILLIER = "paillier"
    DETERMINISTIC = "deterministic"
    OPE = "ope"

    def __str__(self) -> str:
        return self.value


#: Capabilities each scheme supports on ciphertexts.
SCHEME_CAPABILITIES: Mapping[EncryptionScheme, frozenset[EncryptedCapability]] = {
    EncryptionScheme.RANDOMIZED: frozenset(),
    EncryptionScheme.PAILLIER: frozenset({EncryptedCapability.ADDITION}),
    EncryptionScheme.DETERMINISTIC: frozenset({EncryptedCapability.EQUALITY}),
    EncryptionScheme.OPE: frozenset(
        {EncryptedCapability.EQUALITY, EncryptedCapability.ORDER}
    ),
}

#: Scheme preference, highest protection first (§6).
_PROTECTION_ORDER = (
    EncryptionScheme.RANDOMIZED,
    EncryptionScheme.PAILLIER,
    EncryptionScheme.DETERMINISTIC,
    EncryptionScheme.OPE,
)


def select_scheme(required: frozenset[EncryptedCapability],
                  ) -> EncryptionScheme | None:
    """Highest-protection scheme supporting ``required``.

    Returns ``None`` when no single scheme supports all the required
    capabilities (e.g., addition together with order), in which case the
    attribute must stay plaintext for some operations.

    Examples
    --------
    >>> select_scheme(frozenset()) is EncryptionScheme.RANDOMIZED
    True
    >>> select_scheme(frozenset({EncryptedCapability.EQUALITY}))
    <EncryptionScheme.DETERMINISTIC: 'deterministic'>
    """
    if EncryptedCapability.NONE in required:
        return None
    for scheme in _PROTECTION_ORDER:
        if required <= SCHEME_CAPABILITIES[scheme]:
            return scheme
    return None


#: An attribute instance: the attribute name plus the node that created
#: its values (base relation, group-by, or udf node).
_Instance = tuple[str, PlanNode]


def _instance_maps(plan: QueryPlan) -> dict[PlanNode, dict[str, _Instance]]:
    """For every node, map each visible attribute to its instance."""
    instances: dict[PlanNode, dict[str, _Instance]] = {}
    profiles = plan.profiles()
    for node in plan.postorder():
        visible = profiles[node].visible
        current: dict[str, _Instance] = {}
        for child in node.children:
            current.update(instances[child])
        if node.is_leaf:
            current = {a: (a, node) for a in visible}
        elif isinstance(node, GroupBy):
            for aggregate in node.aggregates:
                name = aggregate.output_name
                current[name] = (name, node)
        elif isinstance(node, Udf):
            current[node.output] = (node.output, node)
        # Restrict to the attributes actually visible at this node.
        instances[node] = {
            a: inst for a, inst in current.items() if a in visible
        }
    return instances


def _aggregate_born_capabilities(
    function: AggregateFunction,
) -> frozenset[EncryptedCapability] | None:
    if function in (AggregateFunction.SUM, AggregateFunction.AVG):
        # Aggregating Paillier ciphertexts yields Paillier ciphertexts.
        return frozenset({EncryptedCapability.ADDITION})
    if function in (AggregateFunction.MIN, AggregateFunction.MAX):
        # Min/max over OPE ciphertexts yields OPE ciphertexts.
        return frozenset(
            {EncryptedCapability.EQUALITY, EncryptedCapability.ORDER}
        )
    return None  # count(*) outputs are computed, not decrypted values


def _born_capabilities(
    node: PlanNode, attribute: str,
) -> frozenset[EncryptedCapability] | None:
    """Capabilities an instance *born encrypted* at ``node`` supports.

    ``None`` means the instance is freely re-encryptable (a base-relation
    attribute, or the output of a plaintext-only udf, whose values exist
    in plaintext before any encryption is chosen).
    """
    if isinstance(node, GroupBy):
        for aggregate in node.aggregates:
            if aggregate.output_name == attribute:
                return _aggregate_born_capabilities(aggregate.function)
        return None
    if isinstance(node, Udf) and attribute == node.output:
        if node.encrypted_capable:
            # Assume a deterministic encrypted-execution variant.
            return frozenset({EncryptedCapability.EQUALITY})
        return None
    return None


def infer_plaintext_requirements(
    plan: QueryPlan,
) -> dict[PlanNode, frozenset[str]]:
    """Compute the ``Ap`` set of every operation of ``plan``.

    The algorithm mirrors §6's scheme selection.  For every attribute
    instance it accumulates, in plan order, the capabilities demanded by
    the operations touching it.  A demand is *encryptable* when a single
    scheme supports it together with all previously accepted demands on
    the same instance (and, for instances born encrypted at an
    aggregate/udf, when the producing operation's output supports it).
    Demands that are not encryptable put the attribute in the requiring
    node's ``Ap``; an operation's uniform groups (comparison sides, udf
    inputs) are required plaintext together, preserving §3.2's rule.

    The answer depends only on the immutable plan, so it is inferred
    once per plan and each caller gets its own copy of the mapping.
    """
    if plan._requirements is None:
        plan._requirements = _infer_requirements(plan)
    return dict(plan._requirements)


def _infer_requirements(plan: QueryPlan) -> dict[PlanNode, frozenset[str]]:
    instances = _instance_maps(plan)
    born: dict[_Instance, frozenset[EncryptedCapability] | None] = {}
    for node in plan.postorder():
        for attribute, instance in instances[node].items():
            if instance not in born and instance[1] is node:
                born[instance] = _born_capabilities(node, attribute)

    accepted: dict[_Instance, set[EncryptedCapability]] = {}
    requirements: dict[PlanNode, set[str]] = {
        node: set() for node in plan.operations()
    }

    for node in plan.operations():
        # Demands read the operand instances, i.e. the instance maps of
        # the children (for group-by, the aggregate input instance).
        operand_instances: dict[str, _Instance] = {}
        for child in node.children:
            operand_instances.update(instances[child])

        rejected_attrs: set[str] = set()
        for attribute, capability in node.demands():
            instance = operand_instances.get(attribute)
            if instance is None:
                continue
            if capability is EncryptedCapability.NONE:
                rejected_attrs.add(attribute)
                continue
            fixed = born.get(instance)
            if fixed is not None and capability not in fixed:
                rejected_attrs.add(attribute)
                continue
            pinned = accepted.setdefault(instance, set())
            if select_scheme(frozenset(pinned | {capability})) is None:
                rejected_attrs.add(attribute)
            else:
                pinned.add(capability)

        # A uniform group (§3.2) stays in one form: if any member was
        # rejected, require the whole group in plaintext.
        for group in node.uniform_groups():
            if group & rejected_attrs:
                rejected_attrs |= group

        requirements[node] |= rejected_attrs

    return {node: frozenset(ap) for node, ap in requirements.items()}


def chosen_schemes(plan: QueryPlan) -> dict[str, EncryptionScheme]:
    """The scheme §6 would pick for each base attribute of ``plan``.

    Uses the accumulated capability demands of the plan; attributes with
    no encrypted-evaluation demand get randomized encryption (highest
    protection).  Attribute instances born at aggregates/udfs are keyed by
    their attribute name only when unambiguous.
    """
    instances = _instance_maps(plan)
    demands: dict[_Instance, set[EncryptedCapability]] = {}
    requirements = infer_plaintext_requirements(plan)
    for node in plan.operations():
        operand_instances: dict[str, _Instance] = {}
        for child in node.children:
            operand_instances.update(instances[child])
        plaintext_needed = requirements[node]
        for attribute, capability in node.demands():
            if attribute in plaintext_needed:
                continue
            instance = operand_instances.get(attribute)
            if instance is not None \
                    and capability is not EncryptedCapability.NONE:
                demands.setdefault(instance, set()).add(capability)

    result: dict[str, EncryptionScheme] = {}
    for instance, needed in demands.items():
        scheme = select_scheme(frozenset(needed))
        if scheme is not None:
            result[instance[0]] = scheme
    # Attributes never touched by an encrypted demand: randomized.
    for node in plan.leaves():
        for attribute in node.relation.attribute_names:
            result.setdefault(attribute, EncryptionScheme.RANDOMIZED)
    return result
