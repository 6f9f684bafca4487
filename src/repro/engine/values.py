"""Runtime value representations for encrypted execution.

The engine carries encrypted attribute values as :class:`EncryptedValue`
wrappers tagging the ciphertext with its query-key name and scheme.
Deterministic tokens compare for equality, OPE tokens compare for order,
Paillier ciphertexts add homomorphically, and randomized ciphertexts
support nothing — exactly the capability matrix of
:data:`repro.core.requirements.SCHEME_CAPABILITIES`, enforced at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.requirements import EncryptionScheme
from repro.crypto.paillier import PaillierCiphertext
from repro.exceptions import ExecutionError


class EncryptedValue:
    """One encrypted attribute value flowing through the engine.

    An immutable value object.  Every Encrypt builds one per cell and
    every dedup hashes one per row, so the class is slotted, its
    constructor is written out and its hash is the token's (equal
    values have equal tokens).

    Attributes
    ----------
    key_name:
        Name of the query key (``kSC``, ``kP``, ...) the value is
        encrypted under; comparisons across different keys are meaningless
        and rejected.
    scheme:
        The encryption scheme of the token.
    token:
        ``bytes`` for symmetric schemes, ``int`` for OPE,
        :class:`PaillierCiphertext` for Paillier.
    recovery:
        For OPE: a randomized ciphertext of the plaintext kept alongside
        the comparison token so holders of the key can decrypt (OPE
        tokens themselves only come back as scaled integers).
    """

    __slots__ = ("key_name", "scheme", "token", "recovery")

    def __init__(self, key_name: str, scheme: EncryptionScheme,
                 token: object, recovery: bytes | None = None) -> None:
        _set_key_name(self, key_name)
        _set_scheme(self, scheme)
        _set_token(self, token)
        _set_recovery(self, recovery)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not EncryptedValue:
            return NotImplemented
        return (self.token == other.token  # type: ignore[attr-defined]
                and self.key_name == other.key_name
                and self.scheme is other.scheme
                and self.recovery == other.recovery)

    def __hash__(self) -> int:
        return hash(self.token)

    def __reduce__(self) -> tuple:
        return (EncryptedValue,
                (self.key_name, self.scheme, self.token, self.recovery))

    def require_comparable(self, other: "EncryptedValue") -> None:
        """Raise unless the two values share key and a comparable scheme."""
        if self.key_name != other.key_name:
            raise ExecutionError(
                f"comparing ciphertexts under different keys "
                f"({self.key_name} vs {other.key_name})"
            )
        if self.scheme != other.scheme:
            raise ExecutionError(
                f"comparing ciphertexts under different schemes "
                f"({self.scheme} vs {other.scheme})"
            )
        if self.scheme not in (EncryptionScheme.DETERMINISTIC,
                               EncryptionScheme.OPE):
            raise ExecutionError(
                f"{self.scheme} ciphertexts do not support comparison"
            )

    def equals(self, other: "EncryptedValue") -> bool:
        """Equality over deterministic or OPE tokens."""
        self.require_comparable(other)
        return self.token == other.token

    def less_than(self, other: "EncryptedValue") -> bool:
        """Order comparison; OPE tokens only."""
        self.require_comparable(other)
        if self.scheme is not EncryptionScheme.OPE:
            raise ExecutionError(
                "order comparison requires order-preserving encryption"
            )
        assert isinstance(self.token, int) and isinstance(other.token, int)
        return self.token < other.token

    def group_key(self) -> object:
        """A hashable grouping/join key for the token."""
        if self.scheme is EncryptionScheme.DETERMINISTIC:
            return (self.key_name, "det", self.token)
        if self.scheme is EncryptionScheme.OPE:
            return (self.key_name, "ope", self.token)
        raise ExecutionError(
            f"{self.scheme} ciphertexts cannot be grouped or hash-joined"
        )

    def __repr__(self) -> str:
        if isinstance(self.token, bytes):
            preview = self.token[:6].hex() + "…"
        else:
            preview = str(self.token)[:12]
        return f"Enc<{self.key_name}:{self.scheme.value}:{preview}>"


# The constructor stores through the slot descriptors: ``__setattr__``
# refuses every assignment, and these skip ``object.__setattr__``'s
# name lookup.
_set_key_name = EncryptedValue.key_name.__set__  # type: ignore[attr-defined]
_set_scheme = EncryptedValue.scheme.__set__  # type: ignore[attr-defined]
_set_token = EncryptedValue.token.__set__  # type: ignore[attr-defined]
_set_recovery = EncryptedValue.recovery.__set__  # type: ignore[attr-defined]

#: :func:`signature` of every unencrypted non-NULL value.
PLAINTEXT = "plaintext"


def signature(value: object) -> object | None:
    """The value's representation: a key/scheme pair, plaintext, or None.

    Values are comparable only within one representation, so the
    column kernels (selection, hash join, group-by) decide how to
    compare once per signature instead of once per cell.  NULL has
    none: NULL vs anything is UNKNOWN, never a representation mix.
    """
    if value is None:
        return None
    if value.__class__ is EncryptedValue:
        return (value.key_name, value.scheme)  # type: ignore[attr-defined]
    return PLAINTEXT


@dataclass(frozen=True)
class EncryptedAggregate:
    """A Paillier-encrypted running aggregate (``sum`` or ``avg``).

    Homomorphic aggregation cannot divide, so averages are carried as an
    encrypted sum plus a plaintext count and divided on decryption — the
    standard CryptDB-style treatment, matching the paper's dispatch where
    Y computes ``decrypt(Pk, kP)`` to obtain ``avg(P)``.
    """

    key_name: str
    ciphertext_sum: PaillierCiphertext
    count: int
    is_average: bool

    def __repr__(self) -> str:
        kind = "avg" if self.is_average else "sum"
        return f"EncAgg<{kind}:{self.key_name}:n={self.count}>"
