"""Worker-side task functions and the per-process rehydration registry.

Every function here is a top-level callable (spawn workers resolve
tasks by qualified name) taking ``(payload, chunk)`` and returning a
list, per the :mod:`repro.parallel` contract.  Payloads carry the
chunk-invariant context as pickle blobs; :func:`_rehydrate` memoizes the
deserialized object keyed by the blob bytes, so a column's second chunk
— and every later column under the same key — skips deserialization and
reuses the worker's warmed cipher state (deterministic/OPE memos,
obfuscator pools, HMAC key schedules).

The kernels delegate to the same batch methods the sequential paths
use (``decrypt_values``, ``encrypt_many`` …), so parallel output is
the sequential output, chunk by chunk.  Values cross the process
boundary in *raw* form — ciphertext integers, token bytes — and the
callers rebuild :class:`~repro.engine.values.EncryptedValue`
wrappers parent-side, keeping transport minimal.
"""

from __future__ import annotations

import pickle

from repro.core.requirements import EncryptionScheme

#: Bound on memoized payloads per worker; a full registry is dropped
#: wholesale (key material counts are small).
_REGISTRY_MAX = 64

_materials: dict[bytes, object] = {}


def dumps(obj: object) -> bytes:
    """Serialize a payload for worker transport."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def _rehydrate(blob: bytes) -> object:
    obj = _materials.get(blob)
    if obj is None:
        if len(_materials) >= _REGISTRY_MAX:
            _materials.clear()
        obj = pickle.loads(blob)
        _materials[blob] = obj
    return obj


# -- column crypto ------------------------------------------------------
def paillier_decrypt_chunk(blob: bytes, values: list[int]) -> list:
    """CRT-decrypt raw ciphertext integers under a pickled private key.

    The caller performed the key-membership check before stripping the
    ciphertexts to ints (raw ints carry no key to check against).
    """
    private = _rehydrate(blob)
    return private.decrypt_values(values)


def column_encrypt_chunk(blob: bytes, values: list) -> list:
    """Encrypt one chunk of plaintexts under pickled ``KeyMaterial``.

    Returns raw tokens: ciphertext ints for Paillier, token bytes for
    the symmetric schemes, ``(ope_token, recovery_bytes)`` pairs for
    OPE.  Scheme validation (numeric-only Paillier, missing key parts)
    happened parent-side before submission.
    """
    material = _rehydrate(blob)
    scheme = material.scheme
    if scheme is EncryptionScheme.PAILLIER:
        return material.paillier_public.encrypt_values(values)
    if scheme is EncryptionScheme.DETERMINISTIC:
        return material.deterministic_cipher().encrypt_many(values)
    if scheme is EncryptionScheme.RANDOMIZED:
        return material.randomized_cipher().encrypt_many(values)
    if scheme is EncryptionScheme.OPE:
        tokens = material.ope_cipher().encrypt_many(values)
        recoveries = material.recovery_cipher().encrypt_many(values)
        return list(zip(tokens, recoveries))
    raise ValueError(f"unsupported scheme {scheme}")


def column_decrypt_chunk(payload: tuple[bytes, str], tokens: list) -> list:
    """Decrypt one chunk of raw tokens; ``payload`` is (material, scheme).

    A tampered or wrong-key token raises
    :class:`~repro.exceptions.CryptoError` here and propagates to the
    caller through the chunk's future, like the sequential loop raises.
    """
    from repro.engine.codec import decrypt_tokens

    blob, scheme_name = payload
    return decrypt_tokens(_rehydrate(blob), EncryptionScheme[scheme_name],
                          tokens)
