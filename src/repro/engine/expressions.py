"""Predicate evaluation over plaintext and encrypted columns.

Selections and joins are evaluated uniformly over plaintext values and
:class:`~repro.engine.values.EncryptedValue` tokens: equality works on
deterministic (and OPE) tokens, order works on OPE tokens, and anything
else raises — the engine physically cannot do what the model says it must
not.  Constants in predicates are encrypted on the fly when the evaluator
holds the covering key, mirroring §6's dispatch where conditions are
"formulated on encrypted values" for subjects without plaintext
visibility.

A selection is a *column kernel* (:func:`compile_predicate`): the
conjuncts run in order over a selection vector — conjunct *k* sees only
the rows conjuncts 1…*k*−1 kept — and each one extracts its column
once, groups the surviving cells by representation
(:func:`~repro.engine.values.signature`) and decides how to compare
once per group:

* plaintext cells: one pass with the bound operator;
* tokens the scheme can compare (:data:`_TOKEN_OPS`), with the
  constant's key in the *encryptor's* store: the constant is encrypted
  once and the tokens are compared in one pass;
* anything else (§5 note 2, "the key holder may evaluate the condition
  on plaintext"): the group is decrypted in one column call with the
  key from the evaluating subject's *own* keystore — never the
  encryptor's — every MAC verified before any plaintext is compared,
  and the plaintexts are kept for later conjuncts on the same column.
  Without the key the selection raises.  A column the evaluator sealed
  itself one node below never gets here: the executor filters first, on
  the plaintext (``executor.physical_step`` and its two preconditions).

Join residuals still compare one matched pair at a time
(:func:`compile_comparison`).
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
from repro.engine.values import (
    EncryptedAggregate,
    EncryptedValue,
    signature,
)
from repro.exceptions import ExecutionError

Row = tuple

#: ``decrypt_column`` as the selection kernel calls it; the executor
#: passes its own so note-2 decrypts run (and are traced) as column
#: crypto, with its worker pool.
ColumnDecryptor = Callable[[KeyMaterial, list], list]

#: Order comparisons short-circuit to False on NULL operands (SQL
#: three-valued logic collapses UNKNOWN to False in a filter).
_ORDERED_OPS: dict[ComparisonOp, Callable[[object, object], bool]] = {
    ComparisonOp.LT: _operator.lt,
    ComparisonOp.LE: _operator.le,
    ComparisonOp.GT: _operator.gt,
    ComparisonOp.GE: _operator.ge,
}

_EXACT_OPS: dict[ComparisonOp, Callable[[object, object], bool]] = {
    ComparisonOp.EQ: _operator.eq,
    ComparisonOp.NEQ: _operator.ne,
}

#: What can be decided on two tokens of a scheme alone (either scheme
#: also serves ``IN`` against a collection constant: set membership of
#: the token).  Everything else needs the plaintext.
_TOKEN_OPS: dict[EncryptionScheme, frozenset[ComparisonOp]] = {
    EncryptionScheme.DETERMINISTIC: frozenset(_EXACT_OPS),
    EncryptionScheme.OPE: frozenset(_EXACT_OPS) | frozenset(_ORDERED_OPS),
}


def _compare_ordered(fn: Callable[[object, object], bool],
                     left: object, right: object) -> bool:
    """Ordered comparison with the NULL guard — the single source of
    truth for ``<``/``<=``/``>``/``>=`` over plaintext values."""
    if left is None or right is None:
        return False
    try:
        return fn(left, right)
    except TypeError as error:
        raise ExecutionError(f"incomparable values: {error}") from None


def compare_plain(left: object, op: ComparisonOp, right: object) -> bool:
    """Comparison of two plaintext values."""
    if op is ComparisonOp.EQ:
        return left == right
    if op is ComparisonOp.NEQ:
        return left != right
    if op is ComparisonOp.LIKE:
        if left is None or right is None:
            return False  # NULL LIKE p is UNKNOWN
        if not isinstance(left, str) or not isinstance(right, str):
            raise ExecutionError("LIKE requires string operands")
        return _like_regex(right).match(left) is not None
    if op is ComparisonOp.IN:
        if not isinstance(right, (tuple, list, set, frozenset)):
            raise ExecutionError("IN requires a collection right operand")
        return left in right
    ordered = _ORDERED_OPS.get(op)
    if ordered is not None:
        return _compare_ordered(ordered, left, right)
    raise ExecutionError(f"unsupported operator {op}")


@lru_cache(maxsize=256)
def _like_regex(pattern: str) -> "re.Pattern[str]":
    """A SQL ``LIKE`` pattern as an anchored regex, translated once."""
    return re.compile(
        "^" + re.escape(pattern).replace("%", ".*").replace("_", ".") + "$")


def _plain_mask(op: ComparisonOp, lefts: Sequence[object],
                rights) -> list[bool]:
    """:func:`compare_plain` down two plaintext columns, operator bound
    once (``rights`` may be ``repeat(constant)``)."""
    exact = _EXACT_OPS.get(op)
    if exact is not None:
        return list(map(exact, lefts, rights))
    ordered = _ORDERED_OPS.get(op)
    if ordered is None:
        return [compare_plain(left, op, right)
                for left, right in zip(lefts, rights)]
    try:
        return [left is not None and right is not None
                and ordered(left, right)
                for left, right in zip(lefts, rights)]
    except TypeError as error:
        raise ExecutionError(f"incomparable values: {error}") from None


def compare_encrypted(left: EncryptedValue, op: ComparisonOp,
                      right: EncryptedValue) -> bool:
    """Comparison of two encrypted tokens, capability-checked."""
    if op is ComparisonOp.EQ:
        return left.equals(right)
    if op is ComparisonOp.NEQ:
        return not left.equals(right)
    if op is ComparisonOp.LT:
        return left.less_than(right)
    if op is ComparisonOp.GT:
        return right.less_than(left)
    if op is ComparisonOp.LE:
        return not right.less_than(left)
    if op is ComparisonOp.GE:
        return not left.less_than(right)
    raise ExecutionError(
        f"operator {op} is not supported on encrypted values"
    )


def compare_values(left: object, op: ComparisonOp, right: object) -> bool:
    """Dispatch between plaintext and encrypted comparison.

    Delegates to the memoized compiled comparator so the dispatch and
    NULL/mix semantics have a single source of truth.
    """
    return compile_comparison(op)(left, right)


@lru_cache(maxsize=None)
def compile_comparison(op: ComparisonOp,
                       ) -> Callable[[object, object], bool]:
    """Specialize :func:`compare_values` for one operator.

    The returned two-argument comparator still dispatches on the *values*
    (a column may hold encrypted tokens), but the operator resolution —
    the long ``if op is ...`` chain — happens once, at compile time.
    """
    exact = _EXACT_OPS.get(op)
    ordered = _ORDERED_OPS.get(op)

    def compare(left: object, right: object) -> bool:
        if isinstance(left, EncryptedValue):
            if isinstance(right, EncryptedValue):
                return compare_encrypted(left, op, right)
        elif not isinstance(right, EncryptedValue):
            if exact is not None:
                return exact(left, right)
            if ordered is not None:
                return _compare_ordered(ordered, left, right)
            return compare_plain(left, op, right)
        # NULL vs a ciphertext is not a representation mix (Encrypt
        # passes NULL through); mirror the plaintext NULL semantics so
        # encrypted and plaintext plans agree: only ≠ holds.
        if left is None or right is None:
            return op is ComparisonOp.NEQ
        raise ExecutionError(
            "comparison mixes plaintext and encrypted values; the plan is "
            "missing an encryption or decryption step"
        )

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

    def _cipher(self, sample: EncryptedValue):
        """The cipher whose tokens compare against ``sample``'s."""
        if not self.holds(sample.key_name):
            raise ExecutionError(
                f"cannot encrypt constant: no key {sample.key_name} held"
            )
        if sample.scheme not in _TOKEN_OPS:
            raise ExecutionError(
                f"constants cannot be compared under {sample.scheme}"
            )
        material = self._keystore.material(sample.key_name)
        if material.symmetric is None:
            raise ExecutionError(
                f"key {material.name} lacks symmetric material"
            )
        # Memoized per-material cipher: the subkeys derive once and the
        # deterministic/OPE memos are shared with the column kernels.
        if sample.scheme is EncryptionScheme.DETERMINISTIC:
            return material.deterministic_cipher()
        return material.ope_cipher()

    def match_constant(self, sample: EncryptedValue,
                       constant: object) -> EncryptedValue:
        """An :class:`EncryptedValue` comparable against ``sample``."""
        if isinstance(constant, EncryptedValue):
            return constant
        return EncryptedValue(sample.key_name, sample.scheme,
                              self._cipher(sample).encrypt(constant))

    def match_tokens(self, sample: EncryptedValue,
                     constants: tuple[object, ...]) -> frozenset[object]:
        """The encrypted-token set of an IN collection: one bulk
        ``encrypt_many`` under the sample's key, so the IN check is a
        set-membership test per cell."""
        return frozenset(self._cipher(sample).encrypt_many(constants))


def compile_predicate(predicate: Predicate, columns: tuple[str, ...],
                      encryptor: ConstantEncryptor,
                      local_keystore: KeyStore | None = None,
                      ) -> Callable[[list[Row], ColumnDecryptor], list[Row]]:
    """Compile ``predicate`` into a selection kernel over a row list.

    ``kernel(rows, decrypt_column)`` returns the rows satisfying every
    basic condition, in order.  ``encryptor`` encrypts constants (§6:
    the dispatching user holds the keys and formulates conditions on
    encrypted values, so it may wrap a richer store than the evaluating
    subject's own); ``local_keystore`` is the evaluating subject's own
    material, the only thing the note-2 decrypt-and-compare path may
    use.
    """
    positions = {c: i for i, c in enumerate(columns)}
    conjuncts = []
    for basic in predicate.basic_conditions():
        for attribute in basic.attributes():
            if attribute not in positions:
                raise ExecutionError(
                    f"predicate references missing column {attribute!r}"
                )
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

    def select(rows: list[Row], decrypt_column: ColumnDecryptor) -> list[Row]:
        survivors = _Survivors(rows, keystore, decrypt_column)
        for conjunct in conjuncts:
            if not survivors.alive:
                break
            survivors.keep(conjunct(survivors))
        return [rows[index] for index in survivors.alive]

    return select


class _Survivors:
    """The selection vector of one kernel run, plus what note 2 has
    already decrypted for it."""

    def __init__(self, rows: list[Row], keystore: KeyStore | None,
                 decrypt_column: ColumnDecryptor) -> None:
        self.rows = rows
        self.alive: Sequence[int] = range(len(rows))
        self._keystore = keystore
        self._decrypt_column = decrypt_column
        #: column position → {row index: plaintext}
        self._plain: dict[int, dict[int, object]] = {}

    def column(self, position: int) -> list[object]:
        """The surviving cells of one column."""
        rows = self.rows
        return [rows[index][position] for index in self.alive]

    def keep(self, mask: list[bool]) -> None:
        """Narrow the vector to the rows ``mask`` (aligned with it) kept."""
        self.alive = list(compress(self.alive, mask))

    def mask(self, columns: list[list], kinds: list,
             evaluate) -> list[bool]:
        """One mask over the vector from ``evaluate(self, kind, columns,
        row indices)``, called once per representation group:
        ``columns`` (of surviving cells) and ``kinds`` are aligned with
        the vector, and each call sees one kind's slice of them."""
        if kinds.count(kinds[0]) == len(kinds):
            return evaluate(self, kinds[0], columns, self.alive)
        mask = [False] * len(kinds)
        for kind in set(kinds):
            offsets = [o for o, k in enumerate(kinds) if k == kind]
            group = evaluate(
                self, kind,
                [[column[o] for o in offsets] for column in columns],
                [self.alive[o] for o in offsets])
            for offset, keep in zip(offsets, group):
                mask[offset] = keep
        return mask

    def plaintext(self, position: int, key_name: str,
                  indices: Sequence[int], cells: Sequence) -> list[object]:
        """Note 2 (§5): ``cells`` (rows ``indices`` of one column)
        decrypted under the evaluating subject's own key — one column
        call for whatever no earlier conjunct already decrypted."""
        if self._keystore is None:
            raise ExecutionError(
                "no keys held; cannot decrypt for evaluation")
        if key_name not in self._keystore:
            raise ExecutionError(f"key {key_name} not held; cannot decrypt")
        known = self._plain.setdefault(position, {})
        missing = [o for o, index in enumerate(indices) if index not in known]
        if missing:
            known.update(zip(
                [indices[o] for o in missing],
                self._decrypt_column(self._keystore.material(key_name),
                                     [cells[o] for o in missing])))
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

    def evaluate(survivors, kind, columns, indices):
        (cells,) = columns
        if not isinstance(kind, tuple):  # plaintext or NULL
            return _plain_mask(op, cells, repeat(constant))
        key_name, scheme = kind
        token_ops = _TOKEN_OPS.get(scheme)
        if token_ops is not None and (in_collection or op in token_ops) \
                and encryptor.holds(key_name):
            if in_collection:
                tokens = encryptor.match_tokens(
                    cells[0], tuple(constant))  # type: ignore[arg-type]
                return [cell.token in tokens for cell in cells]
            matched = encryptor.match_constant(cells[0], constant)
            return _plain_mask(op, [cell.token for cell in cells],
                               repeat(matched.token))
        return _plain_mask(
            op, survivors.plaintext(position, key_name, indices, cells),
            repeat(constant))

    def conjunct(survivors: _Survivors) -> list[bool]:
        cells = survivors.column(position)
        if isinstance(constant, EncryptedValue):
            # A pre-encrypted constant (Figure 8) compares token to
            # token or not at all: no plaintext side to fall back to.
            return [comparator(cell, constant) for cell in cells]
        return survivors.mask([cells], list(map(signature, cells)), evaluate)

    return conjunct


#: In the scheme slot of an operand's kind: an encrypted aggregate,
#: which no token comparison serves but note 2 resolves.
_AGGREGATE = "aggregate"


def _operand_kind(value: object) -> object | None:
    """:func:`signature`, with encrypted aggregates set apart."""
    if value.__class__ is EncryptedAggregate:
        return (value.key_name, _AGGREGATE)  # type: ignore[attr-defined]
    return signature(value)


def _attribute_conjunct(basic: AttributeComparisonPredicate,
                        left_position: int, right_position: int):
    """``left op right`` between two columns, as a mask."""
    op = basic.op
    positions = (left_position, right_position)

    def evaluate(survivors, kinds, sides, indices):
        tokens = [isinstance(kind, tuple) and kind[1] is not _AGGREGATE
                  for kind in kinds]
        if all(tokens) and kinds[0] == kinds[1] \
                and op in _TOKEN_OPS.get(kinds[0][1], ()):
            return _plain_mask(op, *([cell.token for cell in side]
                                     for side in sides))
        if any(tokens) and None in kinds:
            # NULL vs a ciphertext is not a representation mix (Encrypt
            # passes NULL through): as in plaintext, only ≠ holds.
            return [op is ComparisonOp.NEQ] * len(indices)
        if any(tokens) or (op in _ORDERED_OPS and None not in kinds):
            # Note 2 for whichever side is not plaintext already; an
            # aggregate alone asks for it only where plaintext would
            # not compare either (order).
            sides = [
                survivors.plaintext(position, kind[0], indices, side)
                if isinstance(kind, tuple) else side
                for position, kind, side in zip(positions, kinds, sides)]
        return _plain_mask(op, *sides)

    def conjunct(survivors: _Survivors) -> list[bool]:
        lefts = survivors.column(left_position)
        rights = survivors.column(right_position)
        return survivors.mask(
            [lefts, rights],
            list(zip(map(_operand_kind, lefts), map(_operand_kind, rights))),
            evaluate)

    return conjunct
