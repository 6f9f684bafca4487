"""Order-preserving encryption (OPE).

The paper's tool uses "an OPE scheme" to evaluate range conditions on
encrypted values (§7).  This module implements a deterministic,
Boldyreva-style recursive binary construction: the ciphertext of a value
is found by walking a PRF-derived balanced partition of the (domain,
range) rectangle, so that ``x < y  ⇒  Enc(x) < Enc(y)`` while individual
mappings remain key-dependent.

The scheme works on signed 48-bit integers; fractional values are
fixed-point scaled, dates map to their ordinal, and strings map through
their big-endian 5-byte prefix: strings sharing those five bytes tie, an
approximation of the paper's OPE that is adequate for range predicates
over the synthetic workloads (:func:`encode_orderable`).

The PRF walk is ~48 levels deep, so a cipher instance keeps two kinds of
:class:`~repro.core.cache.Memo`: a *pivot* memo (rectangle → PRF pivot —
every value shares the top of the partition tree, so even all-distinct
columns reuse most levels) and a *value* memo (plaintext ↔ ciphertext —
equal plaintexts, ubiquitous in range and join columns, pay one walk
total).  Both are transparent: ciphertexts are bit-identical to the
memo-free walk.
"""

from __future__ import annotations

import struct
from datetime import date
from typing import Iterable, Sequence

from repro.core.cache import Memo
from repro.crypto import primitives
from repro.exceptions import CryptoError

#: Entries in the per-cipher pivot memo and in each value memo.
_PIVOT_MEMO_MAX = 1 << 16
_VALUE_MEMO_MAX = 8192

#: Domain: signed 48-bit integers.
DOMAIN_BITS = 48
DOMAIN_MIN = -(2 ** (DOMAIN_BITS - 1))
DOMAIN_MAX = 2 ** (DOMAIN_BITS - 1) - 1

#: Range expansion factor (range is domain × 2^16).
RANGE_BITS = DOMAIN_BITS + 16

#: Fixed-point scale for fractional plaintexts (two decimal digits keeps
#: TPC-H prices inside the domain).
FIXED_POINT_SCALE = 100


class OpeCipher:
    """Deterministic order-preserving encryption.

    Examples
    --------
    >>> cipher = OpeCipher(b"k" * 32)
    >>> cipher.encrypt(10) < cipher.encrypt(10.5) < cipher.encrypt(999)
    True
    >>> cipher.decrypt_numeric(cipher.encrypt(-42))
    -42
    """

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise CryptoError("OPE keys must be at least 16 bytes")
        self._key = primitives.prf(key, b"ope")
        self._pivot_memo = Memo(_PIVOT_MEMO_MAX)
        self._encrypt_memo = Memo(_VALUE_MEMO_MAX)
        self._decrypt_memo = Memo(_VALUE_MEMO_MAX)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def encrypt(self, value: object) -> int:
        """Map ``value`` to its order-preserving ciphertext."""
        return self._encrypt_int(encode_orderable(value))

    def encrypt_many(self, values: Sequence[object]) -> list[int]:
        """Bulk :meth:`encrypt`: one dispatch per column, shared memos."""
        encrypt_int = self._encrypt_int
        return [encrypt_int(encode_orderable(v)) for v in values]

    def decrypt_many(self, ciphertexts: Iterable[int]) -> list[int]:
        """Bulk :meth:`decrypt` (encoded integers come back)."""
        decrypt_int = self._decrypt_int
        return [decrypt_int(c) for c in ciphertexts]

    def decrypt(self, ciphertext: int) -> int:
        """Recover the *encoded integer* plaintext.

        Note that only the encoded integer comes back: callers that
        encrypted floats/dates must invert the encoding themselves (see
        :func:`decode_numeric`; the engine keeps a recoverable ciphertext
        alongside — OPE exists to compare, not to store).
        """
        return self._decrypt_int(ciphertext)

    def decrypt_numeric(self, ciphertext: int) -> int | float:
        """Recover a numeric plaintext, descaling the fixed point.

        Examples
        --------
        >>> cipher = OpeCipher(b"k" * 32)
        >>> cipher.decrypt_numeric(cipher.encrypt(-42))
        -42
        """
        return decode_numeric(self._decrypt_int(ciphertext))

    # ------------------------------------------------------------------
    # Recursive binary construction
    # ------------------------------------------------------------------
    def _pivot(self, dlo: int, dhi: int, rlo: int, rhi: int) -> tuple[int, int]:
        """PRF-derived pivot pair for the current rectangle.

        The domain pivot is the midpoint; the range pivot is drawn
        pseudorandomly from the middle half of the range, keeping the
        recursion balanced while making the mapping key-dependent.
        """
        memo = self._pivot_memo
        rectangle = (dlo, dhi, rlo, rhi)
        cached = memo.get(rectangle)
        if cached is not None:
            return cached
        dmid = (dlo + dhi) // 2
        span = rhi - rlo
        quarter = span // 4
        seed = primitives.prf(
            self._key, struct.pack(">qqQQ", dlo, dhi, rlo, rhi)
        )
        offset = int.from_bytes(seed[:8], "big") % max(quarter * 2, 1)
        rmid = rlo + quarter + offset
        # The range pivot must leave enough room on both sides for the
        # remaining domain values (injectivity).
        left_need = dmid - dlo + 1
        right_need = dhi - dmid
        rmid = max(rlo + left_need - 1, min(rmid, rhi - right_need))
        return memo.store(rectangle, (dmid, rmid))

    def _encrypt_int(self, value: int) -> int:
        memo = self._encrypt_memo
        cached = memo.get(value)
        if cached is not None:
            return cached
        if not DOMAIN_MIN <= value <= DOMAIN_MAX:
            raise CryptoError(f"value {value} outside the OPE domain")
        dlo, dhi = DOMAIN_MIN, DOMAIN_MAX
        rlo, rhi = 0, 2 ** RANGE_BITS - 1
        pivot = self._pivot
        while dlo < dhi:
            dmid, rmid = pivot(dlo, dhi, rlo, rhi)
            if value <= dmid:
                dhi, rhi = dmid, rmid
            else:
                dlo, rlo = dmid + 1, rmid + 1
        return memo.store(value, rlo)

    def _decrypt_int(self, ciphertext: int) -> int:
        memo = self._decrypt_memo
        cached = memo.get(ciphertext)
        if cached is not None:
            return cached
        dlo, dhi = DOMAIN_MIN, DOMAIN_MAX
        rlo, rhi = 0, 2 ** RANGE_BITS - 1
        if not rlo <= ciphertext <= rhi:
            raise CryptoError("ciphertext outside the OPE range")
        pivot = self._pivot
        while dlo < dhi:
            dmid, rmid = pivot(dlo, dhi, rlo, rhi)
            if ciphertext <= rmid:
                dhi, rhi = dmid, rmid
            else:
                dlo, rlo = dmid + 1, rmid + 1
        # The ciphertext must be the canonical image of the plaintext;
        # anything else was never produced by this key.  Only canonical
        # images enter the memo, so forged tokens always re-walk and
        # raise here.
        if self._encrypt_int(dlo) != ciphertext:
            raise CryptoError("ciphertext not produced under this OPE key")
        return memo.store(ciphertext, dlo)


def encode_orderable(value: object) -> int:
    """Map a supported value to the signed integer OPE domain.

    The mapping is strictly monotone and *uniform across numeric types*
    (both ints and floats are fixed-point scaled, so ``100`` and ``100.0``
    map to the same point and mixed comparisons stay correct).  Dates map
    to scaled ordinals; strings map through their 5-byte big-endian prefix
    (ties between strings sharing a 5-byte prefix collapse — adequate for
    range predicates over the synthetic workloads).
    """
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, int):
        scaled = value * FIXED_POINT_SCALE
    elif isinstance(value, float):
        scaled = round(value * FIXED_POINT_SCALE)
    elif isinstance(value, date):
        scaled = value.toordinal() * FIXED_POINT_SCALE
    elif isinstance(value, str):
        prefix = value.encode("utf-8")[:5].ljust(5, b"\x00")
        scaled = int.from_bytes(prefix, "big")
    else:
        raise CryptoError(f"type {type(value).__name__} is not orderable")
    if not DOMAIN_MIN <= scaled <= DOMAIN_MAX:
        raise CryptoError(f"value {value!r} outside the OPE domain")
    return scaled


def decode_numeric(encoded: int) -> int | float:
    """Invert the numeric fixed-point encoding of :func:`encode_orderable`."""
    if encoded % FIXED_POINT_SCALE == 0:
        return encoded // FIXED_POINT_SCALE
    return encoded / FIXED_POINT_SCALE
