"""Query-plan key establishment and distribution (Definition 6.1, §6).

Attributes that appear together in an equivalence set of the root profile
must be encrypted with the same key, so that conditions comparing them in
encrypted form can be evaluated; all remaining encrypted attributes get
their own key.  Keys are distributed only to the subjects in charge of the
corresponding encryption/decryption operations, which — being authorized
for the plaintext of what they encrypt/decrypt — makes the distribution
obey the authorizations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.core.authorization import Policy, stands_in_for
from repro.core.extension import ExtendedPlan
from repro.core.lineage import augment_view, derived_lineage
from repro.core.operators import Decrypt, Encrypt
from repro.core.requirements import (
    EncryptionScheme,
    _node_demands,
    select_scheme,
)
from repro.core.visibility import is_source_encryption
from repro.exceptions import KeyManagementError


@dataclass(frozen=True)
class QueryKey:
    """One encryption key, covering a cluster of equivalent attributes.

    The paper writes ``k_A`` for the key of attribute cluster ``A`` (e.g.
    ``kSC`` for the joined pair S, C and ``kP`` for the singleton P).
    """

    attributes: frozenset[str]
    scheme: EncryptionScheme = EncryptionScheme.DETERMINISTIC

    @property
    def name(self) -> str:
        """The paper's ``k<attrs>`` naming, e.g. ``kSC``."""
        return "k" + "".join(sorted(self.attributes))

    def covers(self, attribute: str) -> bool:
        """Whether this key encrypts ``attribute``."""
        return attribute in self.attributes

    def __str__(self) -> str:
        return self.name


@dataclass
class KeyAssignment:
    """The key set ``K_T`` of a plan plus its distribution to subjects."""

    keys: tuple[QueryKey, ...]
    distribution: dict[str, frozenset[QueryKey]] = field(default_factory=dict)

    def key_for(self, attribute: str) -> QueryKey:
        """The key encrypting ``attribute``."""
        for key in self.keys:
            if key.covers(attribute):
                return key
        raise KeyManagementError(f"no key established for {attribute!r}")

    def holders(self, key: QueryKey) -> frozenset[str]:
        """Subjects holding ``key``."""
        return frozenset(
            subject for subject, keys in self.distribution.items()
            if key in keys
        )

    def keys_for_subject(self, subject: str) -> frozenset[QueryKey]:
        """Keys communicated to ``subject`` with its sub-query (§6)."""
        return self.distribution.get(subject, frozenset())

    def describe(self) -> str:
        """Human-readable summary, e.g. ``kSC → H, I``."""
        lines = []
        for key in self.keys:
            holders = ", ".join(sorted(self.holders(key))) or "-"
            lines.append(f"{key.name} ({key.scheme}) → {holders}")
        return "\n".join(lines)


def cluster_encrypted_attributes(
    encrypted: Iterable[str],
    root_equivalences: Iterable[frozenset[str]],
) -> tuple[frozenset[str], ...]:
    """The family ``A`` of Definition 6.1.

    Clusters the encrypted attributes ``Ak`` by the equivalence sets of
    the root profile; attributes in no equivalence set become singletons.

    Examples
    --------
    >>> clusters = cluster_encrypted_attributes(
    ...     {"S", "C", "P"}, [frozenset({"S", "C"})])
    >>> sorted(sorted(c) for c in clusters)
    [['C', 'S'], ['P']]
    """
    remaining = set(encrypted)
    clusters: list[frozenset[str]] = []
    for eq_class in root_equivalences:
        overlap = frozenset(eq_class) & remaining
        if overlap:
            clusters.append(overlap)
            remaining -= overlap
    clusters.extend(frozenset({a}) for a in sorted(remaining))
    return tuple(clusters)


def schemes_for_extended_plan(
    extended: ExtendedPlan,
    policy: Policy | None = None,
) -> dict[str, EncryptionScheme]:
    """Assignment-aware scheme selection (§6, steps 2–3 combined).

    Walks the extended plan and collects, for every encrypted attribute,
    the capabilities actually demanded *on ciphertexts*: an operation
    contributes a demand only when its operand really arrives encrypted
    under the chosen assignment.  Attributes that are encrypted purely in
    transit (nobody computes on them) get randomized encryption — the
    highest protection, and the cheapest.

    When ``policy`` is given, note 2 of §5 is honoured: an assignee that
    is authorized for an attribute's plaintext *and* holds its key (it
    performs an encryption/decryption of that attribute) evaluates the
    condition on plaintext values and encrypts afterwards, so no
    ciphertext capability is demanded.
    """
    plan = extended.plan
    profiles = plan.profiles()

    key_holders: dict[str, set[str]] = {}
    for node in plan.postorder():
        if isinstance(node, (Encrypt, Decrypt)):
            subject = extended.assignee(node)
            for attribute in node.attributes:
                key_holders.setdefault(attribute, set()).add(subject)

    lineage = derived_lineage(plan) if policy is not None else {}

    def note2_applies(subject: str, attribute: str) -> bool:
        if policy is None:
            return False
        view = augment_view(policy.view(subject), lineage)
        return (attribute in view.plaintext
                and subject in key_holders.get(attribute, ()))

    demands: dict[str, set] = {}
    for node in plan.postorder():
        if node.is_leaf or isinstance(node, (Encrypt, Decrypt)):
            continue
        arriving_encrypted: set[str] = set()
        for child in node.children:
            arriving_encrypted |= profiles[child].visible_encrypted
        subject = extended.assignee(node)
        for attribute, capability in _node_demands(node):
            if attribute in arriving_encrypted \
                    and not note2_applies(subject, attribute):
                demands.setdefault(attribute, set()).add(capability)

    schemes: dict[str, EncryptionScheme] = {}
    for attribute in extended.encrypted_attributes:
        needed = frozenset(demands.get(attribute, set()))
        scheme = select_scheme(needed)
        schemes[attribute] = scheme or EncryptionScheme.RANDOMIZED
    # Demands can also fall on derived (aliased) outputs that were born
    # encrypted; record them so key clusters unify correctly.
    for attribute, needed in demands.items():
        if attribute not in schemes:
            scheme = select_scheme(frozenset(needed))
            schemes[attribute] = scheme or EncryptionScheme.RANDOMIZED
    return schemes


def establish_keys(
    extended: ExtendedPlan,
    policy: Policy | None = None,
    schemes: Mapping[str, EncryptionScheme] | None = None,
) -> KeyAssignment:
    """Compute ``K_T`` and its distribution for an extended plan (Def. 6.1).

    Every attribute cluster gets one key; the scheme attached to a key is
    the one §6's rule selects for its attributes (they must agree within a
    cluster — attributes compared together need the same scheme *and* the
    same key).  The key for a cluster is distributed to the assignees of
    the encryption and decryption operations involving its attributes.

    When ``policy`` is given, distribution is validated: a subject may
    receive a key only if it is authorized for the plaintext of all the
    attributes it encrypts/decrypts with it (key distribution must obey
    authorizations, §6).
    """
    root_profile = extended.plan.root_profile()
    # A decryption may name the alias of an attribute that was encrypted
    # below it (``dec[revenue]`` over a Paillier sum of l_extendedprice);
    # the root profile holds the two as equivalent, so clustering it too
    # puts the alias under its source's key.
    decrypted = {attribute for node in extended.decryption_operations()
                 for attribute in node.attributes}
    clusters = cluster_encrypted_attributes(
        extended.encrypted_attributes | decrypted, root_profile.equivalences
    )
    if schemes is None:
        schemes = schemes_for_extended_plan(extended)

    keys: list[QueryKey] = []
    for cluster in clusters:
        cluster_schemes = {
            schemes.get(attribute, EncryptionScheme.RANDOMIZED)
            for attribute in cluster
        }
        if len(cluster_schemes) > 1:
            # Equivalent attributes are operated on together; unify on the
            # least-protective member so the shared operations work.
            for candidate in (EncryptionScheme.OPE,
                              EncryptionScheme.DETERMINISTIC,
                              EncryptionScheme.PAILLIER,
                              EncryptionScheme.RANDOMIZED):
                if candidate in cluster_schemes:
                    scheme = candidate
                    break
        else:
            scheme = next(iter(cluster_schemes))
        keys.append(QueryKey(attributes=cluster, scheme=scheme))

    distribution: dict[str, set[QueryKey]] = {}
    for node in extended.plan.postorder():
        if not isinstance(node, (Encrypt, Decrypt)):
            continue
        subject = extended.assignee(node)
        for key, attribute in itertools.product(keys, sorted(node.attributes)):
            if key.covers(attribute):
                distribution.setdefault(subject, set()).add(key)

    assignment = KeyAssignment(
        keys=tuple(keys),
        distribution={
            subject: frozenset(keys_) for subject, keys_ in distribution.items()
        },
    )
    if policy is not None:
        _validate_distribution(extended, policy, assignment)
    return assignment


def _validate_distribution(extended: ExtendedPlan, policy: Policy,
                           assignment: KeyAssignment) -> None:
    """Check that key holders may see the covered attributes in plaintext."""
    lineage = derived_lineage(extended.plan)
    for node in extended.plan.postorder():
        if not isinstance(node, (Encrypt, Decrypt)):
            continue
        subject = extended.assignee(node)
        relation = stands_in_for(subject)
        if relation is not None:
            # No policy view to check against; it holds its own relation.
            if not is_source_encryption(node, relation):
                raise KeyManagementError(
                    f"{subject} stands in for the owner of {relation} and "
                    f"may hold a key only to encrypt it at the source, not "
                    f"for {node.label()}"
                )
            continue
        view = augment_view(policy.view(subject), lineage)
        unauthorized = frozenset(node.attributes) - view.plaintext
        if unauthorized:
            raise KeyManagementError(
                f"subject {subject} performs "
                f"{'encryption' if isinstance(node, Encrypt) else 'decryption'} "
                f"of {sorted(unauthorized)} without plaintext authorization"
            )
