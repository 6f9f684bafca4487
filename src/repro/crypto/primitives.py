"""Low-level cryptographic building blocks.

The sandbox offers no AES implementation, so the symmetric ciphers are
built from HMAC-SHA256 as a PRF: an HMAC-derived keystream XORed over the
plaintext, plus an HMAC tag for integrity.  This preserves the functional
contract the paper relies on (key-dependent, invertible, deterministic or
randomized per mode) and gives the cost model a measurable cost per byte.

The PRF is the innermost loop of every symmetric/OPE operation, so it is
built for batch throughput: the two key-pad compressions of HMAC are
paid once per key — the inner and outer SHA-256 states are kept and
``copy()``-ed per message, without the ``hmac.HMAC`` wrapper object in
between — the keystream assembles whole 32-byte blocks in a
single ``join`` instead of growing a ``bytearray``, and ``xor_bytes``
XORs arbitrary-length strings as two big integers.  All outputs are
bit-identical to the straightforward per-call/per-byte formulations —
the property tests in ``tests/crypto`` hold the fast kernels to that.

Also provides canonical value encodings (values of any supported type to
bytes and back) — a seal encodes its values through one table keyed by
each value's exact type (:func:`encode_many`), the bytes of
:func:`encode_value` without its ``isinstance`` chain — random key
material, and Miller-Rabin prime generation for the Paillier and RSA
modules.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import struct
from datetime import date
from functools import partial
from typing import Callable, Sequence

from repro.core.cache import Memo
from repro.exceptions import CryptoError

_BLOCK = 32  # SHA-256 output size

#: Derive-once HMAC key schedules, keyed by the raw key bytes.  HMAC
#: hashes both key pads before any data arrives; caching the two keyed
#: states and ``copy()``-ing them per message halves the compression
#: count for short inputs.
_HMAC_CACHE_MAX = 512
_hmac_cache = Memo(_HMAC_CACHE_MAX)
_SHA256_BLOCK = 64
_INNER_PAD = bytes(byte ^ 0x36 for byte in range(256))
_OUTER_PAD = bytes(byte ^ 0x5C for byte in range(256))

#: Type tags for the canonical value encoding.
_TAG_NONE = b"N"
_TAG_INT = b"I"
_TAG_FLOAT = b"F"
_TAG_STR = b"S"
_TAG_DATE = b"D"
_TAG_BYTES = b"B"


def random_bytes(length: int) -> bytes:
    """Cryptographically secure random bytes."""
    return os.urandom(length)


def generate_key(length: int = 32) -> bytes:
    """A fresh symmetric key."""
    return random_bytes(length)


def keyed_hmac(key: bytes) -> Callable[[bytes], bytes]:
    """HMAC-SHA256 under ``key`` as a cached ``message -> digest`` function.

    RFC 2104 over two pre-keyed ``hashlib.sha256`` states, bit-identical
    to ``hmac.new(key, message, sha256).digest()``.  Batch kernels fetch
    the function once per column instead of paying the cache lookup per
    value.
    """
    mac = _hmac_cache.get(key)
    if mac is None:
        block = hashlib.sha256(key).digest() if len(key) > _SHA256_BLOCK \
            else key
        block = block.ljust(_SHA256_BLOCK, b"\0")
        inner = hashlib.sha256(block.translate(_INNER_PAD)).copy
        outer = hashlib.sha256(block.translate(_OUTER_PAD)).copy

        def mac(message: bytes) -> bytes:
            state = inner()
            state.update(message)
            final = outer()
            final.update(state.digest())
            return final.digest()

        _hmac_cache.store(key, mac)
    return mac


def prf(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA256 pseudo-random function (cached key schedule)."""
    return keyed_hmac(key)(data)


def keystream(key: bytes, iv: bytes, length: int) -> bytes:
    """A deterministic keystream of ``length`` bytes from (key, iv).

    Block ``i`` is ``PRF(key, iv ‖ i)``; blocks are assembled in one
    ``join`` (no incremental ``bytearray`` growth) and the common
    one-block case returns a single truncated PRF call.
    """
    mac = keyed_hmac(key)
    if length <= _BLOCK:
        return mac(iv + _ZERO_COUNTER)[:length]
    blocks = (length + _BLOCK - 1) // _BLOCK
    pack = struct.Struct(">Q").pack
    return b"".join(
        [mac(iv + pack(counter)) for counter in range(blocks)]
    )[:length]


_ZERO_COUNTER = struct.pack(">Q", 0)


def keystream_many(key: bytes, ivs: "list[bytes]",
                   lengths: "list[int]") -> list[bytes]:
    """Bulk :func:`keystream`: one keyed-HMAC sweep for a whole column.

    The keyed function is fetched once, so a column of short values
    pays one cache lookup total instead of one per value.  Outputs are
    bit-identical to per-value :func:`keystream` calls.
    """
    mac = keyed_hmac(key)
    pack = struct.Struct(">Q").pack
    out: list[bytes] = []
    append = out.append
    for iv, length in zip(ivs, lengths):
        if length <= _BLOCK:
            append(mac(iv + _ZERO_COUNTER)[:length])
            continue
        blocks = (length + _BLOCK - 1) // _BLOCK
        append(b"".join(
            [mac(iv + pack(counter)) for counter in range(blocks)]
        )[:length])
    return out


def xor_bytes(left: bytes, right: bytes) -> bytes:
    """Bytewise XOR of two equal-length strings (big-integer kernel)."""
    size = len(left)
    if size != len(right):
        raise CryptoError("xor operands must have equal length")
    return (
        int.from_bytes(left, "big") ^ int.from_bytes(right, "big")
    ).to_bytes(size, "big")


def encode_value(value: object) -> bytes:
    """Canonical, type-tagged byte encoding of a supported value.

    Supports ``None``, ``int``, ``float``, ``str``, ``bytes``, and
    :class:`datetime.date`.  The encoding is injective per type, so
    deterministic encryption preserves equality semantics exactly.
    """
    if value is None:
        return _TAG_NONE
    if isinstance(value, bool):
        return _TAG_INT + struct.pack(">q", int(value))
    if isinstance(value, int):
        if -(2 ** 63) <= value < 2 ** 63:
            return _TAG_INT + struct.pack(">q", value)
        raise CryptoError(f"integer out of encodable range: {value}")
    if isinstance(value, float):
        return _TAG_FLOAT + struct.pack(">d", value)
    if isinstance(value, str):
        return _TAG_STR + value.encode("utf-8")
    if isinstance(value, date):
        return _TAG_DATE + struct.pack(">q", value.toordinal())
    if isinstance(value, bytes):
        return _TAG_BYTES + value
    raise CryptoError(f"unsupported value type: {type(value).__name__}")


_TAGGED_Q = struct.Struct(">cq").pack

#: The encoder of a value by its exact type: :func:`encode_value`'s
#: bytes without its ``isinstance`` chain (``bool`` packs as its int).
#: Any other type, a subclass included, goes through the chain.
_ENCODERS: dict[type, Callable[[object], bytes]] = {
    type(None): lambda value: _TAG_NONE,
    bool: partial(_TAGGED_Q, _TAG_INT),
    int: partial(_TAGGED_Q, _TAG_INT),
    float: partial(struct.Struct(">cd").pack, _TAG_FLOAT),
    str: lambda value: _TAG_STR + value.encode("utf-8"),
    date: lambda value: _TAGGED_Q(_TAG_DATE, value.toordinal()),
    bytes: _TAG_BYTES.__add__,
}


def encode_many(values: Sequence[object]) -> list[bytes]:
    """:func:`encode_value` of each value, through one table keyed by
    the value's exact type — what both symmetric seals encode with.

    No scan of the batch first: a one-value batch pays one lookup.  An
    int out of the ``>q`` range fails the table's pack, and the batch
    is encoded again through :func:`encode_value`, which raises.
    """
    encoder = _ENCODERS.get
    try:
        return [encoder(type(value), encode_value)(value) for value in values]
    except struct.error:
        return list(map(encode_value, values))


def decode_value(data: bytes) -> object:
    """Inverse of :func:`encode_value`."""
    if not data:
        raise CryptoError("empty encoded value")
    tag, body = data[:1], data[1:]
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_INT:
        return struct.unpack(">q", body)[0]
    if tag == _TAG_FLOAT:
        return struct.unpack(">d", body)[0]
    if tag == _TAG_STR:
        return body.decode("utf-8")
    if tag == _TAG_DATE:
        return date.fromordinal(struct.unpack(">q", body)[0])
    if tag == _TAG_BYTES:
        return body
    raise CryptoError(f"unknown type tag {tag!r}")


def _is_probable_prime(candidate: int, rounds: int = 40) -> bool:
    """Miller-Rabin primality test."""
    if candidate < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small_primes:
        if candidate % p == 0:
            return candidate == p
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = int.from_bytes(random_bytes(16), "big") % (candidate - 3) + 2
        x = pow(a, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int) -> int:
    """A random probable prime of exactly ``bits`` bits."""
    if bits < 8:
        raise CryptoError("prime size too small")
    while True:
        candidate = int.from_bytes(random_bytes((bits + 7) // 8), "big")
        candidate |= (1 << (bits - 1)) | 1  # force exact bit length, odd
        candidate &= (1 << bits) - 1
        if _is_probable_prime(candidate):
            return candidate


def modinv(a: int, m: int) -> int:
    """Modular inverse via the extended Euclid algorithm."""
    g, x = _extended_gcd(a % m, m)
    if g != 1:
        raise CryptoError("modular inverse does not exist")
    return x % m


def _extended_gcd(a: int, b: int) -> tuple[int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
    return old_r, old_s


def constant_time_equal(left: bytes, right: bytes) -> bool:
    """Timing-safe byte-string comparison."""
    return hmac.compare_digest(left, right)
