"""Value-level encryption/decryption against key material.

Shared by the executor's Encrypt/Decrypt operators and its selections
(note 2 of §5: a subject holding the covering key may evaluate a
condition on plaintext values even when the plan carries the attribute
encrypted, by decrypting the column locally).

Two granularities: :func:`encrypt_value`/:func:`decrypt_value` transform
one cell, while :func:`encrypt_column`/:func:`decrypt_column` transform a
whole column: what the column holds (NULLs, stray ciphertexts, which
schemes), the cipher and the key checks are decided once per column,
and each scheme group goes through the ciphers' bulk APIs
(``encrypt_many``/``decrypt_many``) in one sweep — inline, or as worker
chunks with a pool.  Both granularities share the memoized per-material
cipher instances of :class:`~repro.crypto.keymanager.KeyMaterial`,
produce identical ciphertexts, and raise the same errors (NULLs pass
through untouched; already-encrypted inputs and foreign-key ciphertexts
fail loudly; every MAC is verified before a plaintext is returned).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.requirements import EncryptionScheme
from repro.crypto.keymanager import KeyMaterial
from repro.engine.values import EncryptedAggregate, EncryptedValue
from repro.exceptions import CryptoError, ExecutionError


def encrypt_value(material: KeyMaterial, value: object) -> EncryptedValue:
    """Encrypt one value under the scheme attached to ``material``."""
    if isinstance(value, (EncryptedValue, EncryptedAggregate)):
        raise ExecutionError("value is already encrypted")
    scheme = material.scheme
    if scheme is EncryptionScheme.PAILLIER:
        if material.paillier_public is None:
            raise ExecutionError(f"key {material.name} lacks Paillier parts")
        if not isinstance(value, (int, float)):
            raise ExecutionError("Paillier encrypts numeric values only")
        return EncryptedValue(
            key_name=material.name, scheme=scheme,
            token=material.paillier_public.encrypt(value),
        )
    if material.symmetric is None:
        raise ExecutionError(f"key {material.name} lacks symmetric material")
    if scheme is EncryptionScheme.DETERMINISTIC:
        token: object = material.deterministic_cipher().encrypt(value)
        return EncryptedValue(material.name, scheme, token)
    if scheme is EncryptionScheme.RANDOMIZED:
        token = material.randomized_cipher().encrypt(value)
        return EncryptedValue(material.name, scheme, token)
    if scheme is EncryptionScheme.OPE:
        token = material.ope_cipher().encrypt(value)
        recovery = material.recovery_cipher().encrypt(value)
        return EncryptedValue(material.name, scheme, token, recovery)
    raise ExecutionError(f"unsupported scheme {scheme}")


def encrypt_column(material: KeyMaterial, values: Sequence[object],
                   pool=None) -> list[object]:
    """Bulk :func:`encrypt_value` over a whole column.

    NULLs stay NULL (Encrypt passes them through); everything else must
    be plaintext.  Equivalent to the per-cell loop, one dispatch total.

    With a :class:`~repro.parallel.WorkerPool` (and a column past its
    size threshold) the plaintexts partition into per-worker chunks;
    validation stays parent-side, raw tokens come back in order, and
    the output is distributed identically to the inline path (workers
    draw their own IVs/obfuscators for the randomized schemes).
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
    parallel = pool is not None and pool.should_parallelize(len(plain))
    if parallel:
        from repro.parallel import kernels
    if scheme is EncryptionScheme.PAILLIER:
        if material.paillier_public is None:
            raise ExecutionError(f"key {name} lacks Paillier parts")
        if not all(issubclass(kind, (int, float)) for kind in kinds):
            raise ExecutionError("Paillier encrypts numeric values only")
        if parallel:
            from repro.crypto.paillier import PaillierCiphertext

            public = material.paillier_public
            tokens: list[object] = [
                PaillierCiphertext(public, raw)
                for raw in pool.map_chunks(kernels.column_encrypt_chunk,
                                           kernels.dumps(material), plain)
            ]
        else:
            tokens = material.paillier_public.encrypt_many(plain)
    elif material.symmetric is None:
        raise ExecutionError(f"key {name} lacks symmetric material")
    elif scheme in (EncryptionScheme.DETERMINISTIC,
                    EncryptionScheme.RANDOMIZED):
        if parallel:
            tokens = pool.map_chunks(kernels.column_encrypt_chunk,
                                     kernels.dumps(material), plain)
        elif scheme is EncryptionScheme.DETERMINISTIC:
            tokens = material.deterministic_cipher().encrypt_many(plain)
        else:
            tokens = material.randomized_cipher().encrypt_many(plain)
    elif scheme is EncryptionScheme.OPE:
        if parallel:
            tokens = pool.map_chunks(kernels.column_encrypt_chunk,
                                     kernels.dumps(material), plain)
        else:
            tokens = zip(material.ope_cipher().encrypt_many(plain),
                         material.recovery_cipher().encrypt_many(plain))
    else:
        raise ExecutionError(f"unsupported scheme {scheme}")
    if scheme is EncryptionScheme.OPE:
        cells = [EncryptedValue(name, scheme, token, recovery)
                 for token, recovery in tokens]
    else:
        cells = [EncryptedValue(name, scheme, token) for token in tokens]
    if len(cells) == len(values):
        return cells
    encrypted = iter(cells)  # NULLs stay where they were
    return [None if value is None else next(encrypted) for value in values]


def decrypt_value(material: KeyMaterial, value: object) -> object:
    """Invert :func:`encrypt_value` (also resolves encrypted aggregates)."""
    if isinstance(value, EncryptedAggregate):
        return _decrypt_aggregate(material, value)
    if not isinstance(value, EncryptedValue):
        raise ExecutionError("value is not encrypted")
    if value.key_name != material.name:
        raise ExecutionError(
            f"value encrypted under {value.key_name}, not {material.name}"
        )
    scheme = value.scheme
    if scheme is EncryptionScheme.PAILLIER:
        if material.paillier_private is None:
            raise ExecutionError(
                f"key {material.name} lacks the Paillier private part"
            )
        from repro.crypto.paillier import PaillierCiphertext

        assert isinstance(value.token, PaillierCiphertext)
        return material.paillier_private.decrypt(value.token)
    if material.symmetric is None:
        raise ExecutionError(f"key {material.name} lacks symmetric material")
    if scheme is EncryptionScheme.DETERMINISTIC:
        assert isinstance(value.token, bytes)
        return material.deterministic_cipher().decrypt(value.token)
    if scheme is EncryptionScheme.RANDOMIZED:
        assert isinstance(value.token, bytes)
        return material.randomized_cipher().decrypt(value.token)
    if scheme is EncryptionScheme.OPE:
        if value.recovery is None:
            raise ExecutionError("OPE value lacks its recovery ciphertext")
        return material.recovery_cipher().decrypt(value.recovery)
    raise ExecutionError(f"unsupported scheme {scheme}")


def decrypt_column(material: KeyMaterial, values: Sequence[object],
                   pool=None) -> list[object]:
    """Bulk :func:`decrypt_value` over a whole column.

    One pass checks every cell (key name, recovery ciphertext, a stray
    aggregate or plaintext — the per-cell diagnostics) and groups the
    tokens per scheme in their raw transport form; each group then
    decrypts in one sweep (:func:`decrypt_tokens`) and lands back at
    its cells' positions.

    With a :class:`~repro.parallel.WorkerPool` (and a column past its
    size threshold) the groups fan out as worker chunks instead; a
    tampered token's :class:`~repro.exceptions.CryptoError` raises
    through the chunk's future like the inline sweep raises it.
    """
    name = material.name
    out: list[object] = [None] * len(values)
    groups: dict[EncryptionScheme, tuple[list[int], list[object]]] = {}
    for index, value in enumerate(values):
        if value is None:
            continue
        if isinstance(value, EncryptedValue):
            if value.key_name != name:
                raise ExecutionError(
                    f"value encrypted under {value.key_name}, not {name}"
                )
            scheme = value.scheme
            group = groups.get(scheme)
            if group is None:
                _require_scheme_parts(material, scheme)
                group = groups[scheme] = ([], [])
            if scheme is EncryptionScheme.OPE:
                if value.recovery is None:
                    raise ExecutionError(
                        "OPE value lacks its recovery ciphertext"
                    )
                token: object = value.recovery
            elif scheme is EncryptionScheme.PAILLIER:
                if value.token.public.n != material.paillier_private.public.n:
                    raise CryptoError(
                        "ciphertext under a different Paillier key")
                token = value.token.value
            else:
                token = value.token
            group[0].append(index)
            group[1].append(token)
        elif isinstance(value, EncryptedAggregate):
            out[index] = _decrypt_aggregate(material, value)
        else:
            raise ExecutionError("value is not encrypted")
    parallel = pool is not None and pool.should_parallelize(len(values))
    if parallel:
        from repro.parallel import kernels

        blob = kernels.dumps(material)
    for scheme, (positions, tokens) in groups.items():
        if parallel:
            plains = pool.map_chunks(kernels.column_decrypt_chunk,
                                     (blob, scheme.name), tokens)
        else:
            plains = decrypt_tokens(material, scheme, tokens)
        for index, plain in zip(positions, plains):
            out[index] = plain
    return out


def decrypt_tokens(material: KeyMaterial, scheme: EncryptionScheme,
                   tokens: list) -> list[object]:
    """Decrypt one scheme group of raw tokens in a single sweep.

    Raw means what crosses a process boundary: ciphertext integers for
    Paillier (:func:`decrypt_column` checked key membership before
    stripping the wrappers), token bytes for the symmetric schemes, the *recovery*
    bytes for OPE.  The inline path of :func:`decrypt_column` and the
    pool workers both end here.
    """
    if scheme is EncryptionScheme.PAILLIER:
        return material.paillier_private.decrypt_values(tokens)
    if scheme is EncryptionScheme.DETERMINISTIC:
        return material.deterministic_cipher().decrypt_many(tokens)
    if scheme is EncryptionScheme.RANDOMIZED:
        return material.randomized_cipher().decrypt_many(tokens)
    if scheme is EncryptionScheme.OPE:
        return material.recovery_cipher().decrypt_many(tokens)
    raise ExecutionError(f"unsupported scheme {scheme}")


def _require_scheme_parts(material: KeyMaterial,
                          scheme: EncryptionScheme) -> None:
    """The key must hold what decrypting ``scheme`` needs."""
    if scheme is EncryptionScheme.PAILLIER:
        if material.paillier_private is None:
            raise ExecutionError(
                f"key {material.name} lacks the Paillier private part"
            )
    elif material.symmetric is None:
        raise ExecutionError(f"key {material.name} lacks symmetric material")
    elif scheme not in (EncryptionScheme.DETERMINISTIC,
                        EncryptionScheme.RANDOMIZED,
                        EncryptionScheme.OPE):
        raise ExecutionError(f"unsupported scheme {scheme}")


def _decrypt_aggregate(material: KeyMaterial,
                       value: EncryptedAggregate) -> object:
    if material.paillier_private is None:
        raise ExecutionError(
            f"key {material.name} lacks the Paillier private part"
        )
    total = material.paillier_private.decrypt(value.ciphertext_sum)
    if value.is_average:
        return total / value.count
    return total
