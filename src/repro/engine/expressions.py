"""Predicate evaluation over plaintext and encrypted columns.

Selections and joins are evaluated uniformly over plaintext values and
encrypted tokens: equality works on deterministic (and OPE) tokens,
order works on OPE tokens, and anything else raises — the engine
physically cannot do what the model says it must not.  Constants in
predicates are encrypted on the fly when the evaluator holds the
covering key, mirroring §6's dispatch where conditions are
"formulated on encrypted values" for subjects without plaintext
visibility.

A selection is a *column kernel* (:func:`compile_predicate`): the
conjuncts run in order over a selection vector — conjunct *k* sees only
the rows conjuncts 1…*k*−1 kept — and each one extracts its column
once and decides how to compare once, from the representation the
table states for the column (:attr:`~repro.engine.table.Table.representations`):

* plaintext: one C-level pass (:func:`_column_mask`): the bound
  operator mapped, ``IN`` one set-membership map, ``LIKE`` its compiled
  regex mapped — a column that pass cannot take goes cell by cell
  through :func:`compare_plain`, the per-value reference;
* tokens the scheme can compare (:data:`_TOKEN_OPS`), with the
  constant's key in the *encryptor's* store: the constant is encrypted
  once and the column's raw tokens are compared in one pass;
* anything else (§5 note 2, "the key holder may evaluate the condition
  on plaintext"): the column is decrypted in one call with the
  key from the evaluating subject's *own* keystore — never the
  encryptor's — every MAC verified before any plaintext is compared,
  and the plaintexts are kept for later conjuncts on the same column.
  Without the key the selection raises.

A NULL operand satisfies no comparison, ``<>`` included, on every
path — plaintext, token or ciphertext, column or pair (SQL's UNKNOWN,
which a filter drops).  A column the evaluator sealed itself one node
below never gets here: the executor filters first, on the plaintext
(``repro.core.plan.physical_step``).  The kernel returns the surviving
row indices; the executor gathers each column by them.  Join residuals and
Figure 8's pre-encrypted constants compare one pair at a time
(:func:`compile_comparison`), a sealed cell as an
:class:`~repro.engine.values.EncryptedValue`.
"""

from __future__ import annotations

import operator as _operator
import re
from functools import lru_cache
from itertools import compress, repeat
from typing import Callable, Sequence

from repro.core.predicates import (
    AttributeComparisonPredicate,
    AttributeValuePredicate,
    ComparisonOp,
    Predicate,
)
from repro.core.requirements import EncryptionScheme
from repro.crypto.keymanager import KeyMaterial, KeyStore
from repro.engine.table import Table, gather
from repro.engine.values import EncryptedValue, as_column, is_sealed
from repro.exceptions import ExecutionError

#: ``decrypt_column`` as the selection kernel calls it; the executor
#: passes its ``_open``, so note-2 decrypts use its worker pool and are
#: counted in its record like the Decrypt operator's.
ColumnDecryptor = Callable[[KeyMaterial, Sequence], list]

#: A sealed column's stated representation: (key name, scheme).
Kind = tuple[str, EncryptionScheme]

#: ``=``, ``<>`` and the four orders, as the kernels bind them.
_BINARY: dict[ComparisonOp, Callable[[object, object], bool]] = {
    ComparisonOp.EQ: _operator.eq, ComparisonOp.NEQ: _operator.ne,
    ComparisonOp.LT: _operator.lt, ComparisonOp.LE: _operator.le,
    ComparisonOp.GT: _operator.gt, ComparisonOp.GE: _operator.ge,
}
_ORDERED = frozenset(_BINARY) - {ComparisonOp.EQ, ComparisonOp.NEQ}
_COLLECTIONS = (tuple, list, set, frozenset)

#: What can be decided on two tokens of a scheme alone (either scheme
#: also serves ``IN`` against a collection constant: set membership of
#: the token).  Everything else needs the plaintext.
_TOKEN_OPS: dict[EncryptionScheme, frozenset[ComparisonOp]] = {
    EncryptionScheme.DETERMINISTIC: frozenset(_BINARY) - _ORDERED,
    EncryptionScheme.OPE: frozenset(_BINARY),
}


def compare_plain(left: object, op: ComparisonOp, right: object) -> bool:
    """Comparison of two plaintext values, the reference the column
    kernels answer as: a NULL operand satisfies none (SQL's UNKNOWN,
    which a filter drops)."""
    if op is ComparisonOp.IN:
        if not isinstance(right, _COLLECTIONS):
            raise ExecutionError("IN requires a collection right operand")
        return left is not None and left in right
    if left is None or right is None:
        return False
    if op is ComparisonOp.LIKE:
        if not isinstance(left, str) or not isinstance(right, str):
            raise ExecutionError("LIKE requires string operands")
        return _like_regex(right).match(left) is not None
    compare = _BINARY.get(op)
    if compare is None:
        raise ExecutionError(f"unsupported operator {op}")
    try:
        return compare(left, right)
    except TypeError as error:
        raise ExecutionError(f"incomparable values: {error}") from None


@lru_cache(maxsize=256)
def _like_regex(pattern: str) -> "re.Pattern[str]":
    """A SQL ``LIKE`` pattern as an anchored regex, translated once."""
    return re.compile(
        "^" + re.escape(pattern).replace("%", ".*").replace("_", ".") + "$")


def _column_mask(op: ComparisonOp, cells: Sequence[object],
                 constant: object) -> list[bool]:
    """:func:`compare_plain` of each cell against ``constant`` in one
    C-level pass: the operator mapped (``<>`` over a column checked
    NULL-free once; an order raises on a NULL itself), ``IN`` one set
    lookup map, ``LIKE`` its regex mapped.  A column that pass cannot
    take goes through :func:`compare_plain` cell by cell."""
    compare = _BINARY.get(op)
    try:
        if compare is not None and constant is not None:
            if op is not ComparisonOp.NEQ or None not in cells:
                return list(map(compare, cells, repeat(constant)))
        elif op is ComparisonOp.IN and isinstance(constant, _COLLECTIONS):
            members = frozenset(constant).difference((None,))
            return list(map(members.__contains__, cells))
        elif op is ComparisonOp.LIKE and isinstance(constant, str):
            return list(map(bool, map(_like_regex(constant).match, cells)))
    except TypeError:
        pass
    return list(map(compare_plain, cells, repeat(op), repeat(constant)))


def _pair_mask(op: ComparisonOp, lefts: Sequence[object],
               rights: Sequence[object]) -> list[bool]:
    """:func:`compare_plain` down two plaintext columns: the bound
    operator mapped in one C-level pass over an order, or over ``=`` and
    ``<>`` when neither column holds a NULL; otherwise cell by cell."""
    compare = _BINARY.get(op)
    if compare is not None and (op in _ORDERED or None not in lefts
                                and None not in rights):
        try:
            return list(map(compare, lefts, rights))
        except TypeError:
            pass
    return list(map(compare_plain, lefts, repeat(op), rights))


def compare_encrypted(left: EncryptedValue, op: ComparisonOp,
                      right: EncryptedValue) -> bool:
    """Comparison of two encrypted tokens, capability-checked."""
    compare = _BINARY.get(op)
    if compare is None:
        raise ExecutionError(
            f"operator {op} is not supported on encrypted values")
    left.require_comparable(right)
    if op in _ORDERED and left.scheme is not EncryptionScheme.OPE:
        raise ExecutionError(
            "order comparison requires order-preserving encryption")
    return compare(left.token, right.token)


@lru_cache(maxsize=None)
def compile_comparison(op: ComparisonOp,
                       ) -> Callable[[object, object], bool]:
    """The comparator of one operator, on plaintext or encrypted values,
    one pair at a time: a NULL operand satisfies no comparison, also
    against a ciphertext."""

    def compare(left: object, right: object) -> bool:
        if isinstance(left, EncryptedValue):
            if isinstance(right, EncryptedValue):
                return compare_encrypted(left, op, right)
        elif not isinstance(right, EncryptedValue):
            return compare_plain(left, op, right)
        # NULL vs a ciphertext is not a representation mix (Encrypt
        # passes NULL through); it is UNKNOWN, as against a plaintext.
        if left is None or right is None:
            return False
        raise ExecutionError(
            "comparison mixes plaintext and encrypted values; the plan is "
            "missing an encryption or decryption step")

    return compare


class ConstantEncryptor:
    """Encrypts predicate constants to match an encrypted column.

    Holds a :class:`KeyStore`; when a predicate compares an encrypted
    column against a plaintext constant, the constant is encrypted under
    the column's key (deterministic for equality, OPE token for ranges).
    Without the covering key the comparison is impossible — exactly the
    model's intent.
    """

    def __init__(self, keystore: KeyStore | None) -> None:
        self._keystore = keystore

    @property
    def keystore(self) -> KeyStore | None:
        """The key material available to this evaluator."""
        return self._keystore

    def holds(self, key_name: str) -> bool:
        """Whether constants can be encrypted under ``key_name``."""
        return self._keystore is not None and key_name in self._keystore

    def _cipher(self, kind: Kind):
        """The cipher whose tokens compare against a column stated
        ``kind``'s."""
        key_name, scheme = kind
        if not self.holds(key_name):
            raise ExecutionError(
                f"cannot encrypt constant: no key {key_name} held")
        if scheme not in _TOKEN_OPS:
            raise ExecutionError(
                f"constants cannot be compared under {scheme}")
        material = self._keystore.material(key_name)
        if material.symmetric is None:
            raise ExecutionError(
                f"key {material.name} lacks symmetric material")
        # Memoized per-material cipher: the subkeys derive once and the
        # deterministic/OPE memos are shared with the column kernels.
        if scheme is EncryptionScheme.DETERMINISTIC:
            return material.deterministic_cipher()
        return material.ope_cipher()

    def match_constant(self, kind: Kind,
                       constant: object) -> EncryptedValue:
        """An :class:`EncryptedValue` comparable against a column stated
        ``kind``."""
        if isinstance(constant, EncryptedValue):
            return constant
        return EncryptedValue(*kind, self._cipher(kind).encrypt(constant))

    def match_tokens(self, kind: Kind,
                     constants: tuple[object, ...]) -> frozenset[object]:
        """The encrypted-token set of an IN collection: one bulk
        ``encrypt_many`` under the column's key, so the IN check is a
        set-membership test per cell."""
        return frozenset(self._cipher(kind).encrypt_many(constants))


def compile_predicate(predicate: Predicate, columns: tuple[str, ...],
                      encryptor: ConstantEncryptor,
                      local_keystore: KeyStore | None = None,
                      ) -> Callable[[Table, ColumnDecryptor], Sequence[int]]:
    """Compile ``predicate`` into a selection kernel over a table.

    ``kernel(table, decrypt_column)`` returns the indices of the rows of
    ``table`` (whose columns are ``columns``) satisfying every basic
    condition, in order.  ``encryptor`` encrypts constants (§6: the
    dispatching user holds the keys and formulates conditions on
    encrypted values, so it may wrap a richer store than the evaluating
    subject's own);
    ``local_keystore`` is the evaluating subject's own material, the
    only thing the note-2 decrypt-and-compare path may use.
    """
    positions = {c: i for i, c in enumerate(columns)}
    conjuncts = []
    for basic in predicate.basic_conditions():
        for attribute in basic.attributes():
            if attribute not in positions:
                raise ExecutionError(
                    f"predicate references missing column {attribute!r}")
        if isinstance(basic, AttributeValuePredicate):
            conjuncts.append(_value_conjunct(
                basic, positions[basic.attribute], encryptor))
        elif isinstance(basic, AttributeComparisonPredicate):
            conjuncts.append(_attribute_conjunct(
                basic, positions[basic.left], positions[basic.right]))
        else:
            raise ExecutionError(f"unsupported predicate {basic!r}")
    keystore = local_keystore if local_keystore is not None \
        else encryptor.keystore

    def select(table: Table,
               decrypt_column: ColumnDecryptor) -> Sequence[int]:
        survivors = _Survivors(table, keystore, decrypt_column)
        for conjunct in conjuncts:
            if not survivors.alive:
                break
            survivors.keep(conjunct(survivors))
        return survivors.alive

    return select


def _comparable(kind: Kind, cells: Sequence) -> Sequence[object]:
    """What a scheme compares of a sealed column's cells: the cells
    themselves, or an OPE pair's order token (NULL kept as None)."""
    if kind[1] is EncryptionScheme.OPE:
        return [None if cell is None else cell[0] for cell in cells]
    return cells


class _Survivors:
    """The selection vector of one kernel run, plus what note 2 has
    already decrypted for it."""

    def __init__(self, table: Table, keystore: KeyStore | None,
                 decrypt_column: ColumnDecryptor) -> None:
        self.data = table.data
        #: Column position → its stated representation.
        self.kinds = table.representations
        self.alive: Sequence[int] = range(len(table))
        self._keystore = keystore
        self._decrypt_column = decrypt_column
        #: column position → {row index: plaintext}
        self._plain: dict[int, dict[int, object]] = {}

    def column(self, position: int) -> Sequence[object]:
        """The surviving cells of one column, as stored."""
        if isinstance(self.alive, range):
            return self.data[position]
        return gather(self.data[position], self.alive)

    def values(self, position: int) -> list[object]:
        """The surviving cells of one column as values: a sealed cell
        leaves its column as an :class:`EncryptedValue`."""
        return list(as_column(self.kinds[position], self.column(position)))

    def keep(self, mask: list[bool]) -> None:
        """Narrow the vector to the rows ``mask`` (aligned with it) kept."""
        self.alive = list(compress(self.alive, mask))

    def plaintext(self, position: int,
                  indices: Sequence[int]) -> list[object]:
        """Note 2 (§5): rows ``indices`` of one encrypted column
        decrypted under the evaluating subject's own key — one column
        call for whatever no earlier conjunct already decrypted."""
        kind = self.kinds[position]
        key_name = kind[0]  # type: ignore[index]
        if self._keystore is None:
            raise ExecutionError(
                "no keys held; cannot decrypt for evaluation")
        if key_name not in self._keystore:
            raise ExecutionError(f"key {key_name} not held; cannot decrypt")
        known = self._plain.setdefault(position, {})
        missing = [index for index in indices if index not in known]
        if missing:
            known.update(zip(missing, self._decrypt_column(
                self._keystore.material(key_name),
                as_column(kind, gather(self.data[position], missing)))))
        return [known[index] for index in indices]


def _value_conjunct(basic: AttributeValuePredicate, position: int,
                    encryptor: ConstantEncryptor):
    """``attribute op constant`` as a mask over the surviving rows."""
    op = basic.op
    constant = basic.value
    in_collection = (op is ComparisonOp.IN
                     and isinstance(constant,
                                    (tuple, list, set, frozenset)))
    comparator = compile_comparison(op)

    def conjunct(survivors: _Survivors) -> list[bool]:
        if isinstance(constant, EncryptedValue):
            # A pre-encrypted constant (Figure 8) compares token to
            # token or not at all: no plaintext side to fall back to.
            return [comparator(cell, constant)
                    for cell in survivors.values(position)]
        cells = survivors.column(position)
        kind = survivors.kinds[position]
        if not is_sealed(kind) or cells.count(None) == len(cells):
            # plaintext, aggregates or no value left
            return _column_mask(op, cells, constant)
        key_name, scheme = kind  # type: ignore[misc]
        token_ops = _TOKEN_OPS.get(scheme)
        if token_ops is not None and (in_collection or op in token_ops) \
                and encryptor.holds(key_name):
            tokens = _comparable(kind, cells)  # type: ignore[arg-type]
            if in_collection:
                matched = encryptor.match_tokens(
                    kind, tuple(constant))  # type: ignore[arg-type]
                return list(map(matched.__contains__, tokens))
            return _column_mask(
                op, tokens, encryptor.match_constant(kind, constant).token)
        return _column_mask(
            op, survivors.plaintext(position, survivors.alive), constant)

    return conjunct


def _attribute_conjunct(basic: AttributeComparisonPredicate,
                        left_position: int, right_position: int):
    """``left op right`` between two columns, as a mask."""
    op = basic.op
    positions = (left_position, right_position)

    def conjunct(survivors: _Survivors) -> list[bool]:
        kinds = [survivors.kinds[position] for position in positions]
        sealed = [is_sealed(kind) for kind in kinds]
        if all(sealed) and kinds[0] == kinds[1] \
                and op in _TOKEN_OPS.get(kinds[0][1], ()):  # type: ignore
            return _pair_mask(op, *(
                _comparable(kind, survivors.column(position))
                for kind, position in zip(kinds, positions)))
        if not (any(sealed) or op in _ORDERED
                and any(isinstance(kind, tuple) for kind in kinds)):
            return _pair_mask(op, *map(survivors.column, positions))
        # Note 2 for whichever side is not plaintext already, on the
        # rows where both cells hold a value (an aggregate alone asks
        # for it only where plaintext would not compare either: order).
        # A row with a NULL compares its cells as they are.
        sides = [survivors.values(position) for position in positions]
        paired = [offset for offset, (left, right) in enumerate(zip(*sides))
                  if left is not None and right is not None]
        if paired:
            indices = [survivors.alive[offset] for offset in paired]
            for side, position, kind in zip(sides, positions, kinds):
                if isinstance(kind, tuple):
                    plain = survivors.plaintext(position, indices)
                    for offset, value in zip(paired, plain):
                        side[offset] = value
        return _pair_mask(op, *sides)

    return conjunct
