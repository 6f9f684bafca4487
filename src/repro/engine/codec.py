"""Column encryption/decryption against key material.

Shared by the executor's Encrypt/Decrypt operators and its selections
(note 2 of §5: a subject holding the covering key may evaluate a
condition on plaintext values even when the plan carries the attribute
encrypted, by decrypting the column locally).

The codec only wraps and unwraps cells.  :func:`encrypt_column` and
:func:`decrypt_column` decide once per column what the column holds
(NULLs, stray ciphertexts, foreign keys, mis-tagged cells) and strip
the cells to raw tokens; the scheme's work is
:meth:`~repro.crypto.keymanager.KeyMaterial.seal` /
:meth:`~repro.crypto.keymanager.KeyMaterial.open`, called inline or,
with a pool, handed to :meth:`~repro.parallel.WorkerPool.map_chunks` as
its task.  NULLs pass through untouched; already-encrypted inputs and
foreign-key ciphertexts fail loudly; every MAC is verified before a
plaintext is returned.
"""

from __future__ import annotations

from datetime import date
from typing import Sequence

from repro.core.requirements import EncryptionScheme
from repro.crypto.keymanager import KeyMaterial
from repro.crypto.paillier import PaillierCiphertext
from repro.engine.values import EncryptedAggregate, EncryptedValue
from repro.exceptions import CryptoError, ExecutionError

#: Plaintext types whose value equality is encoding equality: a column
#: of nothing else can seal DETERMINISTIC per distinct value.
_EXACT = frozenset({int, str, date, bytes})


def _run(task, material: KeyMaterial, items: list, pool) -> list:
    """``task(material, items)``, through the pool's chunks if there is one."""
    if pool is None:
        return task(material, items)
    return pool.map_chunks(task, material, items)


def encrypt_column(material: KeyMaterial, values: Sequence[object],
                   pool=None) -> list[object]:
    """Encrypt a whole column under ``material``'s scheme.

    NULLs stay NULL (Encrypt passes them through); everything else must
    be plaintext.

    A DETERMINISTIC column whose cells are all of the :data:`_EXACT`
    types — where equal values are exactly the equally encoded ones —
    seals each distinct value once, and its equal cells share one
    immutable :class:`EncryptedValue`.  Any other column (``0.0`` and
    ``-0.0``, ``1`` and ``True``, a ``datetime``) is sealed cell by cell.

    With a :class:`~repro.parallel.WorkerPool` the plaintexts go to
    :meth:`KeyMaterial.seal` in per-worker chunks (inline below the
    pool's size threshold); workers draw their own IVs and obfuscators.
    """
    plain = [value for value in values if value is not None]
    kinds = set(map(type, plain))  # what the column holds, decided once
    if any(issubclass(kind, (EncryptedValue, EncryptedAggregate))
           for kind in kinds):
        raise ExecutionError("value is already encrypted")
    if not plain:
        return [None] * len(values)
    scheme = material.scheme
    name = material.name
    if scheme is EncryptionScheme.PAILLIER:
        if material.paillier_public is None:
            raise ExecutionError(f"key {name} lacks Paillier parts")
        if not all(issubclass(kind, (int, float)) for kind in kinds):
            raise ExecutionError("Paillier encrypts numeric values only")
    elif material.symmetric is None:
        raise ExecutionError(f"key {name} lacks symmetric material")
    distinct = scheme is EncryptionScheme.DETERMINISTIC and kinds <= _EXACT
    if distinct:
        plain = list(dict.fromkeys(plain))
    tokens = _run(KeyMaterial.seal, material, plain, pool)
    if scheme is EncryptionScheme.OPE:
        cells = [EncryptedValue(name, scheme, token, recovery)
                 for token, recovery in tokens]
    elif scheme is EncryptionScheme.PAILLIER:
        public = material.paillier_public
        cells = [EncryptedValue(name, scheme, PaillierCiphertext(public, raw))
                 for raw in tokens]
    else:
        cells = [EncryptedValue(name, scheme, token) for token in tokens]
    if distinct:
        sealed = dict(zip(plain, cells))
        sealed[None] = None
        return list(map(sealed.__getitem__, values))
    if len(cells) == len(values):
        return cells
    encrypted = iter(cells)  # NULLs stay where they were
    return [None if value is None else next(encrypted) for value in values]


def decrypt_column(material: KeyMaterial, values: Sequence[object],
                   pool=None) -> list[object]:
    """Invert :func:`encrypt_column` (also resolves encrypted aggregates).

    One pass checks every cell — its key name, its scheme tag against
    the key's scheme, a stray plaintext, OPE's recovery ciphertext, the
    Paillier modulus — and strips it to its raw token;
    :meth:`KeyMaterial.open` then opens them in one sweep (in per-worker
    chunks with a :class:`~repro.parallel.WorkerPool`, where a tampered
    token's :class:`~repro.exceptions.CryptoError` raises through its
    chunk) and each plaintext lands back at its cell's position.
    """
    name = material.name
    scheme = material.scheme
    out: list[object] = [None] * len(values)
    positions: list[int] = []
    tokens: list[object] = []
    averages: dict[int, int] = {}
    for index, value in enumerate(values):
        if value is None:
            continue
        if isinstance(value, EncryptedValue):
            key_name, tag, token = value.key_name, value.scheme, value.token
        elif isinstance(value, EncryptedAggregate):
            key_name, tag = value.key_name, EncryptionScheme.PAILLIER
            token = value.ciphertext_sum
            if value.is_average:
                averages[index] = value.count
        else:
            raise ExecutionError("value is not encrypted")
        if key_name != name:
            raise ExecutionError(
                f"value encrypted under {key_name}, not {name}")
        if tag is not scheme:
            raise ExecutionError(
                f"value tagged {tag}, but key {name} is {scheme}")
        if scheme is EncryptionScheme.OPE:
            token = value.recovery
            if token is None:
                raise ExecutionError("OPE value lacks its recovery ciphertext")
        positions.append(index)
        tokens.append(token)
    if not tokens:
        return out
    if scheme is EncryptionScheme.PAILLIER:
        if material.paillier_private is None:
            raise ExecutionError(
                f"key {name} lacks the Paillier private part")
        modulus = material.paillier_private.public.n
        if any(token.public.n != modulus for token in tokens):
            raise CryptoError("ciphertext under a different Paillier key")
        tokens = [token.value for token in tokens]
    elif material.symmetric is None:
        raise ExecutionError(f"key {name} lacks symmetric material")
    plains = _run(KeyMaterial.open, material, tokens, pool)
    for index, plain in zip(positions, plains):
        out[index] = plain
    for index, count in averages.items():
        out[index] /= count
    return out
