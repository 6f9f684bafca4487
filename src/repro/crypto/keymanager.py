"""Key material management for query execution.

Bridges the model layer (:class:`repro.core.keys.QueryKey` — *which*
attributes share a key and under *which* scheme) and the executable
ciphers of this package.  A :class:`KeyStore` generates and holds the
actual key material for each query key; per-subject stores hold only the
keys distributed to that subject (§6), so the runtime reproduces the
paper's key-distribution discipline faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.cache import Memo
from repro.core.keys import KeyAssignment, QueryKey
from repro.core.requirements import EncryptionScheme
from repro.crypto import primitives
from repro.crypto.ope import OpeCipher
from repro.crypto.paillier import (
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_keypair,
)
from repro.crypto.symmetric import DeterministicCipher, RandomizedCipher
from repro.exceptions import KeyManagementError

#: Signed bodies one store keeps (:attr:`KeyStore.bodies`): a store is
#: one subject's keys for one query, dispatched under one plan, so one
#: body per user that sends it.
BODIES_PER_STORE = 4


@dataclass
class KeyMaterial:
    """Concrete key material for one :class:`QueryKey`.

    :meth:`seal` and :meth:`open` are the one place a scheme's column
    work is chosen: the engine codec calls them inline, and hands them
    to a :class:`~repro.parallel.WorkerPool` as its chunk tasks.

    Cipher instances are memoized per material (``*_cipher`` accessors):
    constructing a cipher derives its HMAC subkeys, so the bulk column
    transforms reuse one instance per key instead of paying the
    derivation per cell.  The deterministic/OPE memos live as long as
    the material.  A subject's material is decoded from an envelope's key
    section (:func:`repro.distributed.messages.decode_payload`) and kept
    in that subject's keyring (:mod:`repro.distributed.nodes`), so a
    memo serves every run of that subject that is delivered the same
    key bytes — a join key sealed last run is a dict hit — until the
    section leaves the ring or the policy moves.  A decoded store
    belongs to one node, and its ciphers run under that node's lock.
    """

    query_key: QueryKey
    symmetric: bytes | None = None
    paillier_public: PaillierPublicKey | None = None
    paillier_private: PaillierPrivateKey | None = None

    @property
    def name(self) -> str:
        """The query key's name (``kSC``, ``kP``, ...)."""
        return self.query_key.name

    @property
    def scheme(self) -> EncryptionScheme:
        """The encryption scheme attached to the key."""
        return self.query_key.scheme

    def seal(self, plains: Sequence[object]) -> list:
        """Encrypt raw plaintexts under this key's scheme, in order.

        Returns raw tokens: token bytes (randomized, deterministic),
        ``(token, recovery)`` pairs (OPE), ciphertext ints (Paillier).
        The caller has checked the values and that the key holds the
        scheme's parts.
        """
        scheme = self.scheme
        if scheme is EncryptionScheme.DETERMINISTIC:
            return self.deterministic_cipher().encrypt_many(plains)
        if scheme is EncryptionScheme.RANDOMIZED:
            return self.randomized_cipher().encrypt_many(plains)
        if scheme is EncryptionScheme.OPE:
            return list(zip(self.ope_cipher().encrypt_many(plains),
                            self.recovery_cipher().encrypt_many(plains)))
        return self.paillier_public.encrypt_values(plains)

    def open(self, tokens: Sequence[object]) -> list[object]:
        """Invert :meth:`seal`; OPE takes its *recovery* bytes.

        Every tag is checked before a plaintext is returned: a tampered
        or wrong-key token raises :class:`~repro.exceptions.CryptoError`.
        """
        scheme = self.scheme
        if scheme is EncryptionScheme.DETERMINISTIC:
            return self.deterministic_cipher().decrypt_many(tokens)
        if scheme is EncryptionScheme.RANDOMIZED:
            return self.randomized_cipher().decrypt_many(tokens)
        if scheme is EncryptionScheme.OPE:
            return self.recovery_cipher().decrypt_many(tokens)
        return self.paillier_private.decrypt_values(tokens)

    def deterministic_cipher(self) -> DeterministicCipher:
        """The memoized :class:`DeterministicCipher` for this key."""
        return self._cached_cipher("det", DeterministicCipher)

    def randomized_cipher(self) -> RandomizedCipher:
        """The memoized :class:`RandomizedCipher` for this key."""
        return self._cached_cipher("rand", RandomizedCipher)

    def ope_cipher(self) -> OpeCipher:
        """The memoized :class:`OpeCipher` for this key."""
        return self._cached_cipher("ope", OpeCipher)

    def recovery_cipher(self) -> RandomizedCipher:
        """The randomized cipher carried alongside OPE tokens.

        OPE tokens only compare; the recoverable plaintext travels in a
        randomized ciphertext under this derived subkey.
        """
        return self._cached_cipher("recovery", lambda key: RandomizedCipher(
            primitives.prf(key, b"recovery")))

    def _cached_cipher(self, slot: str, factory):
        cache = self._cipher_cache()
        cipher = cache.get(slot)
        if cipher is None:
            cipher = factory(_require_symmetric(self))
            cache[slot] = cipher
        return cipher

    def _cipher_cache(self) -> dict[str, object]:
        cache = self.__dict__.get("_ciphers")
        if cache is None:
            cache = {}
            self.__dict__["_ciphers"] = cache
        return cache

    def __getstate__(self) -> dict[str, object]:
        # Memoized cipher instances stay home on worker transport: each
        # chunk's copy rebuilds them lazily from the key bytes.
        return {
            key: value for key, value in self.__dict__.items()
            if key != "_ciphers"
        }


class KeyStore:
    """Holds key material for a set of query keys.

    Examples
    --------
    >>> from repro.core.keys import QueryKey
    >>> from repro.core.requirements import EncryptionScheme
    >>> store = KeyStore.generate([QueryKey(frozenset({"P"}),
    ...                                     EncryptionScheme.DETERMINISTIC)])
    >>> material = store.material_for_attribute("P")
    >>> material.open(material.seal([42, "x"]))
    [42, 'x']

    :attr:`bodies` is where a sender keeps the envelope bodies framed
    around this store (:func:`repro.distributed.messages.seal_envelope`,
    *Warm dispatch*): a body is a pure function of the sub-queries, the
    sender's key and this store's material, so it lives and dies with
    the store, and a re-key, which builds new stores, frames afresh.
    """

    def __init__(self, materials: Iterable[KeyMaterial] = ()) -> None:
        self._materials: dict[str, KeyMaterial] = {}
        #: (sub-queries, sender key) → ``u32 len ‖ body ‖ signature``.
        self.bodies = Memo(BODIES_PER_STORE)
        for material in materials:
            self.add(material)

    @classmethod
    def generate(cls, keys: Iterable[QueryKey]) -> "KeyStore":
        """Generate fresh material for every query key.

        Two Paillier keys holding one modulus raise
        :class:`KeyManagementError`: either could open the other's
        ciphertexts."""
        store = cls()
        moduli: set[int] = set()
        for key in keys:
            if key.scheme is EncryptionScheme.PAILLIER:
                public, private = generate_keypair()
                if public.n in moduli:
                    raise KeyManagementError(
                        f"Paillier key {key.name} shares a modulus with "
                        "another key of the store")
                moduli.add(public.n)
                store.add(KeyMaterial(
                    query_key=key,
                    paillier_public=public,
                    paillier_private=private,
                ))
            else:
                store.add(KeyMaterial(
                    query_key=key, symmetric=primitives.generate_key(32)
                ))
        return store

    def add(self, material: KeyMaterial) -> None:
        """Register key material (rejects duplicates)."""
        if material.name in self._materials:
            raise KeyManagementError(f"duplicate key {material.name}")
        self._materials[material.name] = material
        self.bodies.clear()  # a body framed before carries other keys

    def material(self, name: str) -> KeyMaterial:
        """Key material by query-key name."""
        try:
            return self._materials[name]
        except KeyError:
            raise KeyManagementError(f"no key material for {name!r}") from None

    def material_for_attribute(self, attribute: str) -> KeyMaterial:
        """Key material of the key covering ``attribute``."""
        for material in self._materials.values():
            if material.query_key.covers(attribute):
                return material
        raise KeyManagementError(f"no key covers attribute {attribute!r}")

    def subset(self, key_names: Iterable[str]) -> "KeyStore":
        """A store holding only the named keys (per-subject distribution).

        The material is shared, not copied: a subject that receives a key
        receives all of it, Paillier private part included.
        """
        return KeyStore(
            self._materials[name]
            for name in key_names if name in self._materials
        )

    def names(self) -> frozenset[str]:
        """Names of all held keys."""
        return frozenset(self._materials)

    def __contains__(self, name: object) -> bool:
        """Whether a key of that name is held (no set is built)."""
        return name in self._materials

    def __len__(self) -> int:
        return len(self._materials)


@dataclass
class DistributedKeys:
    """Per-subject key stores implementing the §6 distribution.

    Each subject has one store for the life of the key set, a keyless
    subject included (:meth:`store_for`), so what is kept per store —
    the bodies framed around it — is kept per (key set, subject)."""

    master: KeyStore
    per_subject: dict[str, KeyStore] = field(default_factory=dict)

    @classmethod
    def from_assignment(cls, assignment: KeyAssignment) -> "DistributedKeys":
        """Generate material and split it according to ``assignment``."""
        master = KeyStore.generate(assignment.keys)
        per_subject = {
            subject: master.subset(k.name for k in keys)
            for subject, keys in assignment.distribution.items()
        }
        return cls(master=master, per_subject=per_subject)

    def store_for(self, subject: str) -> KeyStore:
        """The keys ``subject`` received: the same store on every call,
        an empty one, made on the first, for a subject sent no key."""
        store = self.per_subject.get(subject)
        if store is None:
            store = self.per_subject.setdefault(subject, KeyStore())
        return store


def _require_symmetric(material: KeyMaterial) -> bytes:
    if material.symmetric is None:
        raise KeyManagementError(
            f"key {material.name} has no symmetric material"
        )
    return material.symmetric
