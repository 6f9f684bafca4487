"""The seed's crypto path, kept verbatim for fast-vs-reference bars.

These are the pre-batch-kernel implementations from the seed commit
(``git show 50b4a52``): per-call HMAC key scheduling, a ``bytearray``-
append keystream, per-byte generator XOR, per-cell cipher construction
in the Encrypt/Decrypt operators, double-``pow`` Paillier encryption and
``λ/µ`` decryption, and no memoization anywhere.  The benchmarks run
them side by side with :mod:`repro.crypto` to measure the speedup and to
assert the deterministic outputs stayed bit-identical.

Not imported by the library — benchmark support only.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
import sys
from pathlib import Path

from repro.core.requirements import EncryptionScheme
from repro.crypto import primitives
from repro.crypto.keymanager import KeyMaterial
from repro.crypto.paillier import PaillierCiphertext
from repro.engine.executor import Executor
from repro.engine.table import Table
from repro.engine.values import EncryptedAggregate, EncryptedValue
from repro.exceptions import CryptoError, ExecutionError

# The seed Paillier paths — double-pow encryption, λ/µ decryption — are
# the test suite's oracles.
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.paillier_reference import (  # noqa: E402
    decrypt_reference as seed_paillier_decrypt,
    encrypt_reference as seed_paillier_encrypt,
)

_BLOCK = 32
_IV_LEN = 16
_TAG_LEN = 12
_ENC_DOMAIN = b"enc"
_MAC_DOMAIN = b"mac"
_SIV_DOMAIN = b"siv"


# ---------------------------------------------------------------------------
# Seed primitives (per-call HMAC scheduling, bytearray keystream, per-byte
# XOR) — verbatim from the seed's ``repro/crypto/primitives.py``.
# ---------------------------------------------------------------------------
def seed_prf(key: bytes, data: bytes) -> bytes:
    return hmac.new(key, data, hashlib.sha256).digest()


def seed_keystream(key: bytes, iv: bytes, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += seed_prf(key, iv + struct.pack(">Q", counter))
        counter += 1
    return bytes(out[:length])


def seed_xor_bytes(left: bytes, right: bytes) -> bytes:
    if len(left) != len(right):
        raise CryptoError("xor operands must have equal length")
    return bytes(a ^ b for a, b in zip(left, right))


# ---------------------------------------------------------------------------
# Seed symmetric ciphers — subkeys derived inside every call, no memo.
# ---------------------------------------------------------------------------
class SeedStreamCipher:
    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise CryptoError("symmetric keys must be at least 16 bytes")
        self._key = key

    def _seal(self, iv: bytes, encoded: bytes) -> bytes:
        body = seed_xor_bytes(
            encoded,
            seed_keystream(
                seed_prf(self._key, _ENC_DOMAIN), iv, len(encoded)
            ),
        )
        tag = seed_prf(
            seed_prf(self._key, _MAC_DOMAIN), iv + body
        )[:_TAG_LEN]
        return iv + body + tag

    def _open(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) < _IV_LEN + _TAG_LEN:
            raise CryptoError("ciphertext too short")
        iv = ciphertext[:_IV_LEN]
        body = ciphertext[_IV_LEN:-_TAG_LEN]
        tag = ciphertext[-_TAG_LEN:]
        expected = seed_prf(
            seed_prf(self._key, _MAC_DOMAIN), iv + body
        )[:_TAG_LEN]
        if not primitives.constant_time_equal(tag, expected):
            raise CryptoError("ciphertext authentication failed (wrong key?)")
        return seed_xor_bytes(
            body,
            seed_keystream(
                seed_prf(self._key, _ENC_DOMAIN), iv, len(body)
            ),
        )

    def decrypt(self, ciphertext: bytes) -> object:
        return primitives.decode_value(self._open(ciphertext))


class SeedRandomizedCipher(SeedStreamCipher):
    def encrypt(self, value: object) -> bytes:
        return self._seal(
            primitives.random_bytes(_IV_LEN), primitives.encode_value(value)
        )


class SeedDeterministicCipher(SeedStreamCipher):
    def encrypt(self, value: object) -> bytes:
        encoded = primitives.encode_value(value)
        iv = seed_prf(
            seed_prf(self._key, _SIV_DOMAIN), encoded
        )[:_IV_LEN]
        return self._seal(iv, encoded)


# ---------------------------------------------------------------------------
# Seed OPE — the same recursive walk as ``repro.crypto.ope`` but with no
# pivot/value memos and the per-call HMAC scheduling of seed_prf.
# ---------------------------------------------------------------------------
from repro.crypto.ope import (  # noqa: E402  (domain constants shared)
    DOMAIN_MAX,
    DOMAIN_MIN,
    RANGE_BITS,
    encode_orderable,
)


class SeedOpeCipher:
    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise CryptoError("OPE keys must be at least 16 bytes")
        self._key = seed_prf(key, b"ope")

    def encrypt(self, value: object) -> int:
        return self._encrypt_int(encode_orderable(value))

    def _pivot(self, dlo: int, dhi: int, rlo: int, rhi: int) -> tuple[int, int]:
        dmid = (dlo + dhi) // 2
        span = rhi - rlo
        quarter = span // 4
        seed = seed_prf(
            self._key, struct.pack(">qqQQ", dlo, dhi, rlo, rhi)
        )
        offset = int.from_bytes(seed[:8], "big") % max(quarter * 2, 1)
        rmid = rlo + quarter + offset
        left_need = dmid - dlo + 1
        right_need = dhi - dmid
        rmid = max(rlo + left_need - 1, min(rmid, rhi - right_need))
        return dmid, rmid

    def _encrypt_int(self, value: int) -> int:
        if not DOMAIN_MIN <= value <= DOMAIN_MAX:
            raise CryptoError(f"value {value} outside the OPE domain")
        dlo, dhi = DOMAIN_MIN, DOMAIN_MAX
        rlo, rhi = 0, 2 ** RANGE_BITS - 1
        while dlo < dhi:
            dmid, rmid = self._pivot(dlo, dhi, rlo, rhi)
            if value <= dmid:
                dhi, rhi = dmid, rmid
            else:
                dlo, rlo = dmid + 1, rmid + 1
        return rlo


# ---------------------------------------------------------------------------
# Seed codec + executor: per-cell cipher construction and dispatch, exactly
# the seed's ``encrypt_value``/``decrypt_value`` + ``map_columns`` closures.
# ---------------------------------------------------------------------------
def seed_encrypt_value(material: KeyMaterial, value: object) -> EncryptedValue:
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
            token=seed_paillier_encrypt(material.paillier_public, value),
        )
    if material.symmetric is None:
        raise ExecutionError(f"key {material.name} lacks symmetric material")
    if scheme is EncryptionScheme.DETERMINISTIC:
        token: object = SeedDeterministicCipher(
            material.symmetric).encrypt(value)
        return EncryptedValue(material.name, scheme, token)
    if scheme is EncryptionScheme.RANDOMIZED:
        token = SeedRandomizedCipher(material.symmetric).encrypt(value)
        return EncryptedValue(material.name, scheme, token)
    if scheme is EncryptionScheme.OPE:
        token = SeedOpeCipher(material.symmetric).encrypt(value)
        recovery = SeedRandomizedCipher(
            seed_prf(material.symmetric, b"recovery")
        ).encrypt(value)
        return EncryptedValue(material.name, scheme, token, recovery)
    raise ExecutionError(f"unsupported scheme {scheme}")


def seed_decrypt_value(material: KeyMaterial, value: object) -> object:
    if isinstance(value, EncryptedAggregate):
        if material.paillier_private is None:
            raise ExecutionError(
                f"key {material.name} lacks the Paillier private part"
            )
        total = seed_paillier_decrypt(material.paillier_private,
                                      value.ciphertext_sum)
        if value.is_average:
            return total / value.count
        return total
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
        assert isinstance(value.token, PaillierCiphertext)
        return seed_paillier_decrypt(material.paillier_private, value.token)
    if material.symmetric is None:
        raise ExecutionError(f"key {material.name} lacks symmetric material")
    if scheme is EncryptionScheme.DETERMINISTIC:
        assert isinstance(value.token, bytes)
        return SeedDeterministicCipher(material.symmetric).decrypt(value.token)
    if scheme is EncryptionScheme.RANDOMIZED:
        assert isinstance(value.token, bytes)
        return SeedRandomizedCipher(material.symmetric).decrypt(value.token)
    if scheme is EncryptionScheme.OPE:
        if value.recovery is None:
            raise ExecutionError("OPE value lacks its recovery ciphertext")
        return SeedRandomizedCipher(
            seed_prf(material.symmetric, b"recovery")
        ).decrypt(value.recovery)
    raise ExecutionError(f"unsupported scheme {scheme}")


class SeedCryptoExecutor(Executor):
    """An :class:`Executor` whose Encrypt/Decrypt run the seed crypto path.

    Only the two crypto operators are overridden (per-cell
    ``map_columns`` closures over the seed codec); the relational
    operators stay the library's, so the fast-vs-seed delta isolates the
    crypto substrate.
    """

    def _encrypt(self, node, child: Table) -> Table:
        keystore = self._require_keystore()
        transforms = {}
        for attribute in sorted(node.attributes):
            material = keystore.material_for_attribute(attribute)
            transforms[attribute] = (
                lambda v, m=material: None if v is None
                else seed_encrypt_value(m, v)
            )
        return child.map_columns(transforms).rename("enc")

    def _decrypt(self, node, child: Table) -> Table:
        keystore = self._require_keystore()
        transforms = {}
        for attribute in sorted(node.attributes):
            material = keystore.material_for_attribute(attribute)
            transforms[attribute] = (
                lambda v, m=material: None if v is None
                else seed_decrypt_value(m, v)
            )
        return child.map_columns(transforms).rename("dec")
