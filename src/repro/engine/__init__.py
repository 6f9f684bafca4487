"""In-memory relational engine with encrypted execution.

Executes (extended) query plans over real tuples: relational operators
work transparently over plaintext values and over the encrypted tokens
produced by the Encrypt operator, with runtime capability checks that
mirror the model (deterministic equality, OPE ranges, Paillier addition).

NULL semantics
--------------
SQL NULL is represented as Python ``None`` and follows the SQL standard
throughout the engine:

* *ordered* comparisons (``<``, ``<=``, ``>``, ``>=``) with a NULL
  operand are UNKNOWN and collapse to False in filters
  (``compare_plain`` short-circuits them); equality and inequality
  keep the seed engine's Python semantics — ``NULL = NULL`` matches,
  ``NULL <> x`` holds — and hash-join keys group NULL with NULL.
  ``NULL LIKE p`` is UNKNOWN (False).  A comparison between NULL and a
  ciphertext is not a representation mix (Encrypt passes NULL through
  unencrypted) and mirrors the plaintext NULL semantics — only ``<>``
  holds — so encrypted and plaintext plans agree.  Strict three-valued
  equality end to end is a ROADMAP open item;
* aggregates *skip* NULLs: ``COUNT(attr)`` counts only non-NULL values
  (``COUNT(*)`` counts rows), and ``SUM``/``AVG``/``MIN``/``MAX`` over an
  all-NULL group return NULL instead of raising or returning 0;
* a global aggregate (no grouping attributes) over an empty input yields
  the standard single row — COUNT 0, every other aggregate NULL — while
  a grouped aggregate yields zero groups;
* NULLs stay NULL under encryption: Encrypt/Decrypt pass ``None``
  through, and encrypted aggregation skips NULLs before its
  plaintext/ciphertext mix check, so encrypted and plaintext grouping
  agree on NULL-bearing data.

Engine internals (the hot path)
-------------------------------
Row tuples are the storage; every decision that depends on what a
*column* holds is taken once per column, not once per cell:

* **Selections** are column kernels
  (:func:`repro.engine.expressions.compile_predicate`): the conjuncts
  run in order over a selection vector, and each one groups the
  surviving cells of its column by representation (plaintext, or key and
  scheme) and picks one strategy per group — the bound operator on
  plaintext, one encrypted constant against the tokens, or (§5 note 2,
  own keys only) one column decryption shared by later conjuncts.
* **Joins** evaluate every equality conjunct with a hash build/probe
  pass — the hash table is built on the smaller operand — and apply only
  the true residual conjuncts (compiled once per node) to each matched
  pair before the output row is materialized.  Build, probe and group-by
  take each key column once: one pass for its representations, one for
  its keys.
* **Column crypto** (:mod:`repro.engine.codec`) validates, groups per
  scheme and sweeps; an :class:`EncryptedValue` is a slotted value
  object hashed by its token.
* **Tables** cache their column→position maps and expose
  :meth:`~repro.engine.table.Table.bulk_project` /
  :meth:`~repro.engine.table.Table.replace_columns` /
  :meth:`~repro.engine.table.Table.map_columns` batch APIs.
"""

from repro.engine.codec import decrypt_value, encrypt_value
from repro.engine.executor import Executor
from repro.engine.expressions import compile_comparison, compile_predicate
from repro.engine.table import Table
from repro.engine.values import EncryptedAggregate, EncryptedValue

__all__ = [
    "EncryptedAggregate", "EncryptedValue", "Executor", "Table",
    "compile_comparison", "compile_predicate",
    "decrypt_value", "encrypt_value",
]
