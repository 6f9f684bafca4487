"""The simulated participants of a run.

Each subject of the scenario becomes a :class:`SubjectNode` with its own
RSA keypair and its own stored tables (for data authorities).
:func:`build_nodes` makes one node per subject and places every
authority's tables at their owner.

The keyring
-----------
The query keys a node works with are only ever the ones this run's
envelope delivered, but a node remembers what it authenticated.  Its
:attr:`SubjectNode.keyring` holds two kinds of entry:

* the SHA-256 of a key section, as it arrived → the
  :class:`~repro.crypto.keymanager.KeyStore` decoded from it
  (:func:`~repro.distributed.messages.decode_payload`).  A run whose
  authenticated envelope carries a byte-identical section gets that
  store back, so its DETERMINISTIC and OPE memos carry over and a join
  key sealed last run is a dict hit; a re-keyed run carries other bytes
  and decodes a new store;
* ``(sender key, framed body and signature)`` → the payload opened from
  it (:func:`~repro.distributed.messages.open_envelope`, *Warm
  dispatch*), stored only once the signature verified, so a warm
  envelope is decrypted and tag-checked and then answered without a
  parse, a verify or a decode.

Every open through the ring counts once: a hit when the ring answered
(a remembered body, or a new body whose section it holds), a miss when
a section was decoded; a refused envelope counts nothing and leaves the
ring as it was.  The ring holds :data:`KEYRING_SIZE` entries of both
kinds, least recently used dropped first, lives as long as its node,
and is emptied when the policy version it is opened under moves
(:meth:`SubjectNode.keyring_at`): the service re-keys only after a grant
or revoke, so the stores and bodies of dead keys go with it.  Table
changes leave it alone, keys do not depend on tables.  Every read and
write of a ring happens under its subject's runtime lock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.authorization import Subject, stands_in_for
from repro.core.cache import LRU
from repro.crypto.rsa import (
    DEFAULT_RSA_BITS,
    RsaPrivateKey,
    RsaPublicKey,
    generate_keypair,
)
from repro.engine.executor import UdfCallable
from repro.engine.table import Table
from repro.exceptions import AuthorizationError, CryptoError


#: Entries one node's keyring holds: above a section and a body for
#: each of the 17 SQL templates of TPC-H, so a node serving each of them
#: keeps every plan's keys and envelope.
KEYRING_SIZE = 64


@dataclass
class SubjectNode:
    """One participant: identity, RSA keys, stored data, local state."""

    subject: Subject
    rsa_public: RsaPublicKey
    rsa_private: RsaPrivateKey
    tables: dict[str, Table] = field(default_factory=dict)
    udfs: dict[str, UdfCallable] = field(default_factory=dict)
    #: Section digest → decoded store, and (sender key, framed body) →
    #: opened payload (module docstring, *The keyring*).
    keyring: LRU = field(default_factory=lambda: LRU(KEYRING_SIZE),
                         init=False, repr=False, compare=False)
    _keyring_version: int | None = field(default=None, init=False,
                                         repr=False, compare=False)

    @property
    def name(self) -> str:
        return self.subject.name

    def keyring_at(self, version: int) -> LRU:
        """The keyring, emptied first if the policy ``version`` moved
        since it was last asked for (caller holds the subject's lock)."""
        if version != self._keyring_version:
            self.keyring.clear()
            self._keyring_version = version
        return self.keyring


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
