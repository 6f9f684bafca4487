"""In-memory relational engine with encrypted execution.

Executes (extended) query plans over real tuples: relational operators
work transparently over plaintext values and over the encrypted tokens
produced by the Encrypt operator, with runtime capability checks that
mirror the model (deterministic equality, OPE ranges, Paillier addition).

NULL semantics
--------------
SQL NULL is represented as Python ``None`` and follows the SQL standard
throughout the engine:

* a comparison with a NULL operand is UNKNOWN and a filter drops it:
  ``=``, ``<>``, the orders, ``IN`` and ``LIKE`` alike, in σ, a
  hash-join key (a NULL key matches nothing, not even a NULL one) and a
  join residual.  NULL against a ciphertext is not a representation
  mix (Encrypt passes NULL through unencrypted) and is UNKNOWN too, so
  encrypted and plaintext plans agree, and sqlite agrees with both
  (``tests/tpch/test_sqlite_answer.py``).  GROUP BY groups NULL with
  NULL, as SQL does;
* aggregates *skip* NULLs: ``COUNT(attr)`` counts only non-NULL values
  (``COUNT(*)`` counts rows), and ``SUM``/``AVG``/``MIN``/``MAX`` over an
  all-NULL group return NULL instead of raising or returning 0;
* a global aggregate (no grouping attributes) over an empty input yields
  the standard single row — COUNT 0, every other aggregate NULL — while
  a grouped aggregate yields zero groups;
* NULLs stay NULL under encryption: Encrypt/Decrypt pass ``None``
  through, a NULL cell has no representation, and encrypted aggregation
  skips NULLs, so encrypted and plaintext grouping agree on NULL-bearing
  data.
"""

from repro.engine.executor import Executor
from repro.engine.expressions import compile_comparison, compile_predicate
from repro.engine.table import Table
from repro.engine.values import (
    EncryptedAggregate, EncryptedValue, SealedColumn)

__all__ = [
    "EncryptedAggregate", "EncryptedValue", "Executor", "SealedColumn",
    "Table", "compile_comparison", "compile_predicate",
]
