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
from typing import Iterable

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


@dataclass
class KeyMaterial:
    """Concrete key material for one :class:`QueryKey`.

    Cipher instances are memoized per material (``*_cipher`` accessors):
    constructing a cipher derives its HMAC subkeys, so the engine's
    bulk column transforms reuse one instance per key instead of paying
    the derivation per cell — and the deterministic/OPE memos accumulate
    across calls, which is where the equality-aware speedups live.
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
        cache = self._cipher_cache()
        cipher = cache.get("recovery")
        if cipher is None:
            cipher = RandomizedCipher(
                primitives.prf(_require_symmetric(self), b"recovery")
            )
            cache["recovery"] = cipher
        return cipher

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
        # Memoized cipher instances stay home on worker transport: the
        # receiving process rebuilds them lazily from the key bytes (and
        # accumulates its own deterministic/OPE memos across chunks).
        return {
            key: value for key, value in self.__dict__.items()
            if key != "_ciphers"
        }

    def public_part(self) -> "KeyMaterial":
        """Key material stripped to what encryption-only holders need.

        For Paillier, encryption needs only the public key; symmetric and
        OPE schemes need the full key either way.
        """
        return KeyMaterial(
            query_key=self.query_key,
            symmetric=self.symmetric,
            paillier_public=self.paillier_public,
            paillier_private=self.paillier_private,
        )


class KeyStore:
    """Holds key material for a set of query keys.

    Examples
    --------
    >>> from repro.core.keys import QueryKey
    >>> from repro.core.requirements import EncryptionScheme
    >>> store = KeyStore.generate([QueryKey(frozenset({"P"}),
    ...                                     EncryptionScheme.DETERMINISTIC)])
    >>> cipher = store.cipher_for_attribute("P")
    >>> cipher.decrypt(cipher.encrypt(42))
    42
    """

    def __init__(self, materials: Iterable[KeyMaterial] = ()) -> None:
        self._materials: dict[str, KeyMaterial] = {}
        for material in materials:
            self.add(material)

    @classmethod
    def generate(cls, keys: Iterable[QueryKey]) -> "KeyStore":
        """Generate fresh material for every query key."""
        store = cls()
        for key in keys:
            if key.scheme is EncryptionScheme.PAILLIER:
                public, private = generate_keypair()
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

    def has_attribute(self, attribute: str) -> bool:
        """Whether some held key covers ``attribute``."""
        return any(
            m.query_key.covers(attribute) for m in self._materials.values()
        )

    def cipher_for_attribute(self, attribute: str):
        """An encrypt/decrypt-capable cipher for ``attribute``.

        Returns a :class:`DeterministicCipher`, :class:`RandomizedCipher`,
        or :class:`OpeCipher`; Paillier is handled through
        :meth:`material_for_attribute` because encryption and decryption
        use different halves of the keypair.
        """
        material = self.material_for_attribute(attribute)
        scheme = material.scheme
        if scheme is EncryptionScheme.DETERMINISTIC:
            return material.deterministic_cipher()
        if scheme is EncryptionScheme.RANDOMIZED:
            return material.randomized_cipher()
        if scheme is EncryptionScheme.OPE:
            return material.ope_cipher()
        raise KeyManagementError(
            f"attribute {attribute!r} uses Paillier; use material_for_attribute"
        )

    def subset(self, key_names: Iterable[str]) -> "KeyStore":
        """A store holding only the named keys (per-subject distribution)."""
        return KeyStore(
            self._materials[name].public_part()
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
    """Per-subject key stores implementing the §6 distribution."""

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
        """The keys ``subject`` received (empty store if none)."""
        return self.per_subject.get(subject, KeyStore())


def _require_symmetric(material: KeyMaterial) -> bytes:
    if material.symmetric is None:
        raise KeyManagementError(
            f"key {material.name} has no symmetric material"
        )
    return material.symmetric
