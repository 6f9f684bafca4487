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
from repro.exceptions import AuthorizationError


@dataclass
class SubjectNode:
    """One participant: identity, RSA keys, stored data, local state.

    ``latency_seconds`` simulates the per-fragment round-trip/processing
    delay of a real remote provider; a run pays the sum over its
    fragments, and concurrent runs overlap theirs on different subjects.
    """

    subject: Subject
    rsa_public: RsaPublicKey
    rsa_private: RsaPrivateKey
    tables: dict[str, Table] = field(default_factory=dict)
    udfs: dict[str, UdfCallable] = field(default_factory=dict)
    latency_seconds: float = 0.0

    @classmethod
    def create(cls, subject: Subject,
               tables: Mapping[str, Table] | None = None,
               udfs: Mapping[str, UdfCallable] | None = None,
               rsa_keys: tuple[RsaPublicKey, RsaPrivateKey] | None = None,
               latency_seconds: float = 0.0) -> "SubjectNode":
        """Create a node, generating an RSA keypair unless one is given.

        ``rsa_keys`` lets long-lived deployments (the service layer,
        repeated-query benchmarks) generate each subject's keypair once
        and reuse it instead of paying keygen per construction.
        """
        if rsa_keys is None:
            rsa_keys = generate_keypair(DEFAULT_RSA_BITS)
        public, private = rsa_keys
        return cls(
            subject=subject,
            rsa_public=public,
            rsa_private=private,
            tables=dict(tables or {}),
            udfs=dict(udfs or {}),
            latency_seconds=latency_seconds,
        )

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
                latency_seconds: float | Mapping[str, float] = 0.0,
                ) -> dict[str, SubjectNode]:
    """One node per subject, tables at their owners.

    ``authority_tables`` maps authority name → {relation name → table};
    ``rsa_keys`` (subject name → keypair) skips per-node key generation;
    ``latency_seconds`` — one float for every subject or a per-subject
    mapping — simulates provider round-trip delay per fragment.  A
    mapping naming a subject with no node here raises
    :class:`ValueError` before any node is built (a silently ignored
    name would make its latency vanish instead of failing loudly).  A
    stand-in name (:data:`~repro.core.authorization.STAND_IN_PREFIX`)
    gets no node: a stand-in stores nothing and the run-time checks
    exempt nobody.
    """
    reserved = sorted(subject.name for subject in subjects
                      if stands_in_for(subject.name) is not None)
    if reserved:
        raise AuthorizationError(
            f"subject names {reserved} are reserved for the stand-ins of "
            "relations nobody owns; a stand-in has no runtime node")
    if isinstance(latency_seconds, Mapping):
        known = {subject.name for subject in subjects}
        unknown = sorted(set(latency_seconds) - known)
        if unknown:
            raise ValueError(
                "latency_seconds names unknown subjects: "
                + ", ".join(repr(name) for name in unknown))
    nodes: dict[str, SubjectNode] = {}
    for subject in subjects:
        tables = authority_tables.get(subject.name, {})
        if isinstance(latency_seconds, Mapping):
            latency = latency_seconds.get(subject.name, 0.0)
        else:
            latency = latency_seconds
        nodes[subject.name] = SubjectNode.create(
            subject, tables=tables, udfs=udfs,
            rsa_keys=(rsa_keys or {}).get(subject.name),
            latency_seconds=latency,
        )
    return nodes
