"""Column encryption/decryption against key material.

Shared by the executor's Encrypt/Decrypt operators and its selections
(note 2 of §5: a subject holding the covering key may evaluate a
condition on plaintext values even when the plan carries the attribute
encrypted, by decrypting the column locally).

The codec checks columns and strips them to raw tokens; the scheme's
work is :meth:`~repro.crypto.keymanager.KeyMaterial.seal` /
:meth:`~repro.crypto.keymanager.KeyMaterial.open`, called inline or,
with a pool, handed to :meth:`~repro.parallel.WorkerPool.map_chunks` as
its task.  :func:`encrypt_column` returns a
:class:`~repro.engine.values.SealedColumn` of raw tokens, and
:func:`decrypt_column` checks a sealed column's key and scheme once, or
a list of cells' once per distinct pair they name.  NULLs pass through
untouched; already-encrypted inputs and foreign-key ciphertexts fail
loudly; every MAC is verified before a plaintext is returned.
"""

from __future__ import annotations

from datetime import date
from typing import Sequence

from repro.core.requirements import EncryptionScheme
from repro.crypto.keymanager import KeyMaterial
from repro.crypto.paillier import PaillierCiphertext
from repro.engine.values import (
    EncryptedAggregate,
    EncryptedValue,
    SealedColumn,
)
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
                   pool=None) -> SealedColumn:
    """Encrypt a whole column under ``material``'s scheme.

    NULLs stay NULL (Encrypt passes them through); everything else must
    be plaintext.

    A DETERMINISTIC column whose cells are all of the :data:`_EXACT`
    types — where equal values are exactly the equally encoded ones —
    seals each distinct value once, and its equal cells share one token.
    Any other column (``0.0`` and ``-0.0``, ``1`` and ``True``, a
    ``datetime``) is sealed cell by cell.

    With a :class:`~repro.parallel.WorkerPool` the plaintexts go to
    :meth:`KeyMaterial.seal` in per-worker chunks (inline below the
    pool's size threshold); workers draw their own IVs and obfuscators.
    """
    if isinstance(values, SealedColumn):
        raise ExecutionError("value is already encrypted")
    plain = [value for value in values if value is not None] \
        if None in values else values  # copied only to drop NULLs
    kinds = set(map(type, plain))  # what the column holds, decided once
    if any(issubclass(kind, (EncryptedValue, EncryptedAggregate))
           for kind in kinds):
        raise ExecutionError("value is already encrypted")
    scheme = material.scheme
    name = material.name
    if not plain:
        return SealedColumn(name, scheme, [None] * len(values))
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
    if scheme is EncryptionScheme.PAILLIER:
        public = material.paillier_public
        tokens = [PaillierCiphertext(public, raw) for raw in tokens]
    if distinct:
        sealed = dict(zip(plain, tokens))
        sealed[None] = None
        tokens = map(sealed.__getitem__, values)
    elif len(tokens) != len(values):
        encrypted = iter(tokens)  # NULLs stay where they were
        tokens = [None if value is None else next(encrypted)
                  for value in values]
    return SealedColumn(name, scheme, tokens)


def decrypt_column(material: KeyMaterial, values: Sequence[object],
                   pool=None) -> list[object]:
    """Invert :func:`encrypt_column` (also resolves encrypted aggregates).

    A :class:`SealedColumn`'s key name and scheme are checked once, a
    list of cells' distinct (key name, scheme tag) pairs once each (a
    stray plaintext raises); then OPE's recovery ciphertexts and the
    Paillier modulus.  :meth:`KeyMaterial.open` opens the raw tokens in
    one sweep (in per-worker chunks with a pool, where a tampered
    token's :class:`~repro.exceptions.CryptoError` raises through its
    chunk), and each plaintext lands back at its cell's position.
    """
    name = material.name
    scheme = material.scheme
    averages: dict[int, int] = {}
    if isinstance(values, SealedColumn):
        cells: Sequence[object] = values.tokens
        named = {(values.key_name, values.scheme): None}
    else:
        cells, named = _unwrap(values, averages)
    for key_name, tag in named:
        if key_name != name:
            raise ExecutionError(
                f"value encrypted under {key_name}, not {name}")
        if tag is not scheme:
            raise ExecutionError(
                f"value tagged {tag}, but key {name} is {scheme}")
    positions = [index for index, cell in enumerate(cells)
                 if cell is not None]
    if not positions:
        return [None] * len(cells)
    tokens = [cells[index] for index in positions]
    if scheme is EncryptionScheme.OPE:
        tokens = [token[1] for token in tokens]
        if None in tokens:
            raise ExecutionError("OPE value lacks its recovery ciphertext")
    elif scheme is EncryptionScheme.PAILLIER:
        if material.paillier_private is None:
            raise ExecutionError(
                f"key {name} lacks the Paillier private part")
        modulus = material.paillier_private.public.n
        if any(token.public.n != modulus for token in tokens):
            raise CryptoError("ciphertext under a different Paillier key")
        tokens = [token.value for token in tokens]
    if scheme is not EncryptionScheme.PAILLIER and material.symmetric is None:
        raise ExecutionError(f"key {name} lacks symmetric material")
    out: list[object] = [None] * len(cells)
    for index, plain in zip(positions,
                            _run(KeyMaterial.open, material, tokens, pool)):
        out[index] = plain
    for index, count in averages.items():
        out[index] /= count
    return out


def _unwrap(values: Sequence[object], averages: dict[int, int],
            ) -> tuple[list[object], dict[tuple[str, object], None]]:
    """The raw tokens of a list of cells, and the (key name, scheme tag)
    pairs they name in first-seen order; an average's count is noted in
    ``averages`` by position."""
    cells: list[object] = []
    named: dict[tuple[str, object], None] = {}
    for index, value in enumerate(values):
        if value is None:
            cells.append(None)
        elif isinstance(value, EncryptedValue):
            named[value.key_name, value.scheme] = None
            cells.append(value.raw)
        elif isinstance(value, EncryptedAggregate):
            named[value.key_name, EncryptionScheme.PAILLIER] = None
            cells.append(value.ciphertext_sum)
            if value.is_average:
                averages[index] = value.count
        else:
            raise ExecutionError("value is not encrypted")
    return cells, named
