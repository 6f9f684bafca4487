"""The seed's selection: one compiled closure evaluated per row.

``compile_row_predicate`` is ``engine/expressions.py``'s
``compile_predicate`` as it stood before selections became column
kernels — each basic condition a closure over the row, the §5 note-2
decrypt taken per cell through ``try_decrypt`` after catching the
token strategy's ``ExecutionError`` — moved here verbatim with
``try_decrypt`` (``engine/codec.py``), its only caller.  Two spellings
follow ``src/``: ``match_constant`` lost its unused operator argument,
and ``match_constant`` / ``match_tokens`` take the column's (key name,
scheme) instead of a sample cell.
"""

from __future__ import annotations

from typing import Callable

from repro.core.predicates import (
    AttributeComparisonPredicate,
    AttributeValuePredicate,
    ComparisonOp,
    Predicate,
)
from repro.crypto.keymanager import KeyStore
from repro.engine.codec import decrypt_column
from repro.engine.expressions import (
    ConstantEncryptor,
    compare_plain,
    compile_comparison,
)
from repro.engine.values import EncryptedAggregate, EncryptedValue
from repro.exceptions import ExecutionError

Row = tuple


def compile_row_predicate(predicate: Predicate, columns: tuple[str, ...],
                      encryptor: ConstantEncryptor,
                      local_keystore: KeyStore | None = None,
                      ) -> Callable[[Row], bool]:
    """Compile ``predicate`` into a row-level boolean function.

    Each basic condition becomes one specialized closure (positions,
    operator, and constant resolved once); the composite predicate is
    their conjunction.  ``encryptor`` encrypts constants (§6: the
    dispatching user holds the keys and formulates conditions on
    encrypted values, so it may wrap a richer store than the evaluating
    subject's own); ``local_keystore`` is the evaluating subject's own
    material, the only thing the note-2 decrypt-and-compare fallback may
    use.
    """
    positions = {c: i for i, c in enumerate(columns)}
    basics = list(predicate.basic_conditions())
    for basic in basics:
        for attribute in basic.attributes():
            if attribute not in positions:
                raise ExecutionError(
                    f"predicate references missing column {attribute!r}"
                )

    keystore = local_keystore if local_keystore is not None \
        else encryptor.keystore

    checks = [
        _compile_basic(basic, positions, encryptor, keystore)
        for basic in basics
    ]
    if len(checks) == 1:
        return checks[0]

    def evaluate(row: Row) -> bool:
        for check in checks:
            if not check(row):
                return False
        return True

    return evaluate


def _compile_basic(basic: Predicate, positions: dict[str, int],
                   encryptor: ConstantEncryptor,
                   keystore: KeyStore | None) -> Callable[[Row], bool]:
    """One basic condition → one specialized row closure."""
    if isinstance(basic, AttributeValuePredicate):
        return _compile_value_check(basic, positions[basic.attribute],
                                    encryptor, keystore)
    if isinstance(basic, AttributeComparisonPredicate):
        return _compile_attribute_check(basic, positions[basic.left],
                                        positions[basic.right], keystore)
    raise ExecutionError(f"unsupported predicate {basic!r}")


def _compile_value_check(basic: AttributeValuePredicate, position: int,
                         encryptor: ConstantEncryptor,
                         keystore: KeyStore | None) -> Callable[[Row], bool]:
    op = basic.op
    constant = basic.value
    comparator = compile_comparison(op)
    constant_encrypted = isinstance(constant, EncryptedValue)
    in_collection = (op is ComparisonOp.IN
                     and isinstance(constant,
                                    (tuple, list, set, frozenset)))

    def check(row: Row) -> bool:
        value = row[position]
        if isinstance(value, EncryptedValue) and not constant_encrypted:
            if in_collection:
                try:
                    tokens = encryptor.match_tokens(
                        (value.key_name, value.scheme),
                        tuple(constant)  # type: ignore[arg-type]
                    )
                    return value.token in tokens
                except ExecutionError:
                    # Note 2 (§5): the key holder evaluates on plaintext
                    # values instead.
                    return compare_plain(try_decrypt(keystore, value),
                                         op, constant)
            try:
                matched = encryptor.match_constant(
                    (value.key_name, value.scheme), constant)
                return comparator(value, matched)
            except ExecutionError:
                # Note 2 (§5): decrypt locally when the keys are held.
                return compare_plain(try_decrypt(keystore, value),
                                     op, constant)
        return comparator(value, constant)

    return check


def _compile_attribute_check(basic: AttributeComparisonPredicate,
                             left_position: int, right_position: int,
                             keystore: KeyStore | None,
                             ) -> Callable[[Row], bool]:
    op = basic.op
    comparator = compile_comparison(op)

    def check(row: Row) -> bool:
        left = row[left_position]
        right = row[right_position]
        try:
            return comparator(left, right)
        except ExecutionError:
            # Note 2: decrypt locally when the keys are held.
            return compare_plain(try_decrypt(keystore, left), op,
                                 try_decrypt(keystore, right))

    return check


def try_decrypt(keystore: KeyStore | None, value: object) -> object:
    """Decrypt ``value`` when the store holds its key; raise otherwise.

    This is the note-2 path: a subject that knows the key can always fall
    back to plaintext evaluation, whatever the scheme supports.
    """
    if not isinstance(value, (EncryptedValue, EncryptedAggregate)):
        return value
    if keystore is None:
        raise ExecutionError("no keys held; cannot decrypt for evaluation")
    if isinstance(value, EncryptedAggregate):
        material = keystore.material(value.key_name)
    else:
        if value.key_name not in keystore.names():
            raise ExecutionError(
                f"key {value.key_name} not held; cannot decrypt"
            )
        material = keystore.material(value.key_name)
    return decrypt_column(material, [value])[0]
