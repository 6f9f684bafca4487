"""The simulated participants of a run.

Each subject of the scenario becomes a :class:`SubjectNode` with its own
RSA keypair and its own stored tables (for data authorities); the query
keys it works with are only ever the ones its envelope delivered, so a
node holds none.  :func:`build_nodes` makes one node per subject and
places every authority's tables at their owner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.authorization import Subject, stands_in_for
from repro.crypto.rsa import (
    DEFAULT_RSA_BITS,
    RsaPrivateKey,
    RsaPublicKey,
    generate_keypair,
)
from repro.engine.executor import UdfCallable
from repro.engine.table import Table
from repro.exceptions import AuthorizationError, CryptoError


@dataclass
class SubjectNode:
    """One participant: identity, RSA keys, stored data, local state."""

    subject: Subject
    rsa_public: RsaPublicKey
    rsa_private: RsaPrivateKey
    tables: dict[str, Table] = field(default_factory=dict)
    udfs: dict[str, UdfCallable] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.subject.name


def generate_subject_keys(
    subjects: list[Subject] | list[str],
) -> dict[str, tuple[RsaPublicKey, RsaPrivateKey]]:
    """One RSA keypair per subject, generated once for reuse.

    Long-lived deployments (the service layer, repeated-query benchmarks)
    pass the result to :func:`build_nodes` via ``rsa_keys`` so node
    construction stops paying keygen per query run.
    """
    names = [s.name if isinstance(s, Subject) else s for s in subjects]
    return {name: generate_keypair(DEFAULT_RSA_BITS) for name in names}


def build_nodes(subjects: list[Subject],
                authority_tables: Mapping[str, Mapping[str, Table]],
                udfs: Mapping[str, UdfCallable] | None = None,
                rsa_keys: Mapping[
                    str, tuple[RsaPublicKey, RsaPrivateKey]] | None = None,
                ) -> dict[str, SubjectNode]:
    """One node per subject, tables at their owners.

    ``authority_tables`` maps authority name → {relation name → table};
    ``rsa_keys`` (subject name → keypair) skips key generation for the
    subjects it names, and :func:`generate_subject_keys` keys the rest.
    Two subjects holding one modulus raise :class:`CryptoError`: either
    could open every envelope sealed for the other.  A stand-in name
    (:data:`~repro.core.authorization.STAND_IN_PREFIX`) gets no node: a
    stand-in stores nothing and the run-time checks exempt nobody.
    """
    reserved = sorted(subject.name for subject in subjects
                      if stands_in_for(subject.name) is not None)
    if reserved:
        raise AuthorizationError(
            f"subject names {reserved} are reserved for the stand-ins of "
            "relations nobody owns; a stand-in has no runtime node")
    ring = {subject.name: (rsa_keys or {}).get(subject.name)
            for subject in subjects}
    ring.update(generate_subject_keys(
        [name for name, keys in ring.items() if keys is None]))
    holders: dict[int, list[str]] = {}
    for name, (public, _) in ring.items():
        holders.setdefault(public.n, []).append(name)
    shared = sorted(sorted(names) for names in holders.values()
                    if len(names) > 1)
    if shared:
        raise CryptoError(
            f"subjects {shared} share an RSA modulus; each subject needs "
            "its own keypair")
    return {
        subject.name: SubjectNode(
            subject, *ring[subject.name],
            tables=dict(authority_tables.get(subject.name, {})),
            udfs=dict(udfs or {}))
        for subject in subjects}
