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
from operator import attrgetter
from typing import Sequence

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

#: The representation of a column of unencrypted values.
PLAINTEXT = "plaintext"
#: In the scheme slot of a representation: encrypted aggregates, which
#: no token comparison serves.
AGGREGATE = "aggregate"

_KEY_AND_SCHEME = attrgetter("key_name", "scheme")


def representation(cells: Sequence[object], column: str) -> object | None:
    """The one representation of a column, read from its cells.

    ``None`` when no cell holds a value, :data:`PLAINTEXT`, ``(key
    name, scheme)`` for ciphertexts or ``(key name, AGGREGATE)`` for
    encrypted aggregates.  Values are comparable only within
    one representation, so a :class:`~repro.engine.table.Table` states
    one per column, read here where the column is born, and a column
    holding a second raises.  NULL has none: NULL vs anything is
    UNKNOWN, never a representation mix.
    """
    kinds = set(map(type, cells))
    kinds.discard(type(None))
    if not kinds:
        return None
    if kinds.isdisjoint((EncryptedValue, EncryptedAggregate)):
        return PLAINTEXT
    if kinds == {EncryptedValue}:
        found = set(map(_KEY_AND_SCHEME, filter(None, cells)))
    elif kinds == {EncryptedAggregate}:
        found = {(cell.key_name, AGGREGATE)  # type: ignore[attr-defined]
                 for cell in filter(None, cells)}
    else:  # plaintext beside ciphertext, or values beside aggregates
        found = kinds
    if len(found) == 1:
        return found.pop()
    raise ExecutionError(
        f"column {column!r} holds more than one value representation")


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
