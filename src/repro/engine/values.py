"""Runtime value representations for encrypted execution.

A sealed column is a :class:`SealedColumn`: the raw tokens of one
column plus the query-key name and scheme they were sealed under, which
a :class:`~repro.engine.table.Table` states as the column's
representation.  A token that leaves its column — through a table's row
views, as a udf argument, or as one of Figure 8's pre-encrypted
constants — is an :class:`EncryptedValue` carrying the same name and
scheme.  Deterministic tokens compare for equality, OPE tokens compare
for order, Paillier ciphertexts add homomorphically, and randomized
ciphertexts support nothing — exactly the capability matrix of
:data:`repro.core.requirements.SCHEME_CAPABILITIES`, enforced at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

from repro.core.requirements import EncryptionScheme
from repro.crypto.paillier import PaillierCiphertext
from repro.exceptions import ExecutionError


@dataclass(frozen=True, slots=True)
class EncryptedValue:
    """One encrypted attribute value, born where a token leaves its
    :class:`SealedColumn`: an immutable value object.

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

    key_name: str
    scheme: EncryptionScheme
    token: object
    recovery: bytes | None = None

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

    @property
    def raw(self) -> object:
        """The cell as a :class:`SealedColumn` holds it."""
        if self.scheme is EncryptionScheme.OPE:
            return self.token, self.recovery
        return self.token

    def __repr__(self) -> str:
        if isinstance(self.token, bytes):
            preview = self.token[:6].hex() + "…"
        else:
            preview = str(self.token)[:12]
        return f"Enc<{self.key_name}:{self.scheme.value}:{preview}>"


#: The representation of a column of unencrypted values.
PLAINTEXT = "plaintext"
#: In the scheme slot of a representation: encrypted aggregates, which
#: no token comparison serves.
AGGREGATE = "aggregate"

_KEY_AND_SCHEME = attrgetter("key_name", "scheme")

#: The type of each scheme's raw tokens in a :class:`SealedColumn`.
TOKEN_TYPES: dict[EncryptionScheme, type] = {
    EncryptionScheme.DETERMINISTIC: bytes,
    EncryptionScheme.RANDOMIZED: bytes,
    EncryptionScheme.OPE: tuple,
    EncryptionScheme.PAILLIER: PaillierCiphertext,
}


class SealedColumn:
    """One column's raw tokens under one key and scheme: bytes
    (deterministic, randomized), ``(token, recovery)`` pairs (OPE) or
    :class:`PaillierCiphertext` objects, NULL kept as ``None``.

    :func:`~repro.engine.codec.encrypt_column` returns one; a
    :class:`~repro.engine.table.Table` stores its tokens and states
    ``(key_name, scheme)``.  Indexing, slicing and iterating hand out
    :class:`EncryptedValue` cells: values leaving the column.
    """

    __slots__ = ("key_name", "scheme", "tokens")

    def __init__(self, key_name: str, scheme: EncryptionScheme,
                 tokens: Sequence[object]) -> None:
        self.key_name = key_name
        self.scheme = scheme
        self.tokens = tuple(tokens)

    def _wrap(self, token: object) -> EncryptedValue | None:
        if token is None:
            return None
        if self.scheme is EncryptionScheme.OPE:
            return EncryptedValue(self.key_name, self.scheme, *token)
        return EncryptedValue(self.key_name, self.scheme, token)

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return map(self._wrap, self.tokens)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(self._wrap, self.tokens[index]))
        return self._wrap(self.tokens[index])


def is_sealed(kind: object) -> bool:
    """Whether a column stated ``kind`` holds a :class:`SealedColumn`'s
    raw tokens (encrypted aggregates are cells, not tokens)."""
    return isinstance(kind, tuple) and kind[1] != AGGREGATE


def as_column(kind: object, cells: Sequence[object]) -> Sequence[object]:
    """Stored ``cells`` of a column stated ``kind`` as the codec takes
    them: a :class:`SealedColumn` over sealed tokens, else the cells."""
    return SealedColumn(*kind, cells) if is_sealed(kind) else cells


def representation(cells: Sequence[object], column: str) -> object | None:
    """The one representation of a column, read from its cells.

    ``None`` when no cell holds a value, :data:`PLAINTEXT`, ``(key
    name, scheme)`` for ciphertexts or ``(key name, AGGREGATE)`` for
    encrypted aggregates.  Values are comparable only within
    one representation, so a :class:`~repro.engine.table.Table` states
    one per column, read here where the column is born, and a column
    holding a second raises.  NULL has none: NULL vs anything is
    UNKNOWN, never a representation mix.  A :class:`SealedColumn`
    states its key and scheme, once its cells are that scheme's tokens.
    """
    sealed = isinstance(cells, SealedColumn)
    kinds = set(map(type, cells.tokens if sealed else cells))
    kinds.discard(type(None))
    if not kinds:
        return None
    if sealed:
        if kinds != {TOKEN_TYPES[cells.scheme]}:
            raise ExecutionError(
                f"column {column!r} is sealed {cells.scheme.value} but "
                f"holds {sorted(kind.__name__ for kind in kinds)}")
        return cells.key_name, cells.scheme
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
