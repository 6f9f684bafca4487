"""The join by its definition: ``σ_C(L × R)``, one predicate per pair.

Every pair of the operands' ``rows`` views is tested against every
conjunct of the condition, with this module's own comparison: any
comparison with a NULL operand — ``=`` and ``<>`` too, against a
plaintext or a ciphertext — is UNKNOWN, so the pair fails, as in SQL.
Two ciphertexts compare only under
one key and scheme that supports the operator — equality for
DETERMINISTIC and OPE tokens, order for OPE — and by their tokens; a
ciphertext against a plaintext, or any other pair, raises.  Nothing here
is imported from the executor it judges.
"""

from __future__ import annotations

import operator

from repro.core.operators import Join
from repro.core.predicates import ComparisonOp
from repro.core.requirements import EncryptionScheme
from repro.engine.table import Table
from repro.engine.values import EncryptedValue
from repro.exceptions import ExecutionError

_OPS = {
    ComparisonOp.EQ: operator.eq, ComparisonOp.NEQ: operator.ne,
    ComparisonOp.LT: operator.lt, ComparisonOp.LE: operator.le,
    ComparisonOp.GT: operator.gt, ComparisonOp.GE: operator.ge,
}
_EQUALITY = (ComparisonOp.EQ, ComparisonOp.NEQ)
#: What two tokens of one key and scheme can be compared by.
_TOKEN_OPS = {
    EncryptionScheme.DETERMINISTIC: _EQUALITY,
    EncryptionScheme.OPE: tuple(_OPS),
}


def holds(op: ComparisonOp, left: object, right: object) -> bool:
    """Whether ``left op right`` is TRUE (UNKNOWN and FALSE are not)."""
    if left is None or right is None:
        return False
    encrypted = [isinstance(side, EncryptedValue) for side in (left, right)]
    if any(encrypted):
        if not all(encrypted):
            raise ExecutionError("a ciphertext compared with a plaintext")
        if (left.key_name, left.scheme) != (right.key_name, right.scheme):
            raise ExecutionError("ciphertexts under two representations")
        if op not in _TOKEN_OPS.get(left.scheme, ()):
            raise ExecutionError(f"{left.scheme} tokens cannot do {op}")
        return _OPS[op](left.token, right.token)
    return _OPS[op](left, right)


def join_rows(basics, columns: tuple[str, ...], left: list[tuple],
              right: list[tuple]) -> list[tuple]:
    """``σ_C(L × R)`` on row lists: the pairs (left row + right row, whose
    columns are ``columns``) every basic condition holds on."""
    checks = [(basic.op, columns.index(basic.left),
               columns.index(basic.right)) for basic in basics]
    pairs = (lr + rr for lr in left for rr in right)
    return [row for row in pairs
            if all(holds(op, row[a], row[b]) for op, a, b in checks)]


def nested_loop_join(node: Join, left: Table, right: Table) -> Table:
    """Every conjunct of ``node``'s condition over every operand pair."""
    columns = left.columns + right.columns
    return Table("⋈", columns, join_rows(
        node.condition.basic_conditions(), columns, left.rows, right.rows))
