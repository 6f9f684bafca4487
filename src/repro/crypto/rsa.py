"""RSA signatures and hybrid encryption for sub-query dispatch (§6).

The paper dispatches each sub-query as ``[[q, keys] priU ] pubS``: signed
with the user's private key (authenticity/integrity) and encrypted with
the recipient's public key (confidentiality).  This module provides the
matching primitives:

* :func:`generate_keypair` — textbook RSA with Miller-Rabin primes, at
  least 512 bits (:data:`DEFAULT_RSA_BITS`, the one default every
  caller shares);
* :meth:`RsaPrivateKey.sign` / :meth:`RsaPublicKey.verify` — full-domain
  hash signatures over SHA-256, exactly one modulus wide;
* :meth:`RsaPublicKey.encrypt` / :meth:`RsaPrivateKey.decrypt` — hybrid
  encryption (RSA-wrapped fresh symmetric key + randomized stream body),
  so payloads of any size are supported.

**CRT kernel.**  Every private-key operation is two half-width
exponentiations ``(x mod p)^dp mod p`` and ``(x mod q)^dq mod q``
recombined with Garner's formula: the value of ``x^d mod n`` at about
40 % of its cost (:mod:`repro.crypto.paillier` decrypts the same way).
The private key keeps ``p``, ``q`` and ``dp``, ``dq``, ``q_inv``, derived
once at generation; the full exponent ``d`` is not kept.  One faulty CRT
half would let ``gcd(s^e - H(m), n)`` reveal a factor, so
:meth:`RsaPrivateKey.sign` re-checks its output with the public exponent
and withholds a signature that does not verify.

**Sign memo.**  A full-domain-hash signature is a pure function of the
key and the digest, so each private key remembers its last
:data:`_SIGN_MEMO_LIMIT` (digest → signature) pairs and re-signing
byte-identical bytes — every warm re-dispatch of a query — costs the
hash alone.  The memo hangs off the key object, never a name: another
key signing the same bytes pays its own modexps and gets its own
signature.  Only signatures that passed the self-check are kept, and a
pure-function memo needs no invalidation, only its size bound.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from dataclasses import dataclass, field

from repro.crypto import primitives
from repro.crypto.symmetric import RandomizedCipher
from repro.exceptions import CryptoError

#: Standard public exponent.
PUBLIC_EXPONENT = 65537

#: Modulus size used wherever a caller does not choose one; also the
#: smallest :func:`generate_keypair` accepts.
DEFAULT_RSA_BITS = 512

#: Signatures one private key remembers (oldest dropped beyond it).
_SIGN_MEMO_LIMIT = 256


@dataclass(frozen=True)
class RsaPublicKey:
    """Public half of an RSA keypair."""

    n: int
    e: int = PUBLIC_EXPONENT

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Whether ``signature`` is valid for ``message``."""
        try:
            if len(signature) != _modulus_bytes(self.n):
                return False
            sig_int = int.from_bytes(signature, "big")
        except (TypeError, ValueError):
            return False
        if not 0 < sig_int < self.n:
            return False
        recovered = pow(sig_int, self.e, self.n)
        return recovered == _digest_int(message, self.n)

    def encrypt(self, payload: bytes) -> bytes:
        """Hybrid-encrypt ``payload`` for the key's owner."""
        session_key = primitives.generate_key(32)
        wrapped = pow(int.from_bytes(session_key, "big"), self.e, self.n)
        wrapped_bytes = wrapped.to_bytes(_modulus_bytes(self.n), "big")
        body = RandomizedCipher(session_key).encrypt(payload)
        return struct.pack(">I", len(wrapped_bytes)) + wrapped_bytes + body


@dataclass(frozen=True)
class RsaPrivateKey:
    """Private half of an RSA keypair, held in CRT form."""

    public: RsaPublicKey
    p: int
    q: int
    dp: int
    dq: int
    q_inv: int
    #: Digest → self-checked signature, in insertion order (module
    #: docstring, *Sign memo*); not part of the key's value.
    _signed: dict[int, bytes] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _signed_guard: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False,
        compare=False)

    def _private_op(self, x: int) -> int:
        """``x^d mod n`` via two half-width exponentiations (Garner)."""
        m1 = pow(x % self.p, self.dp, self.p)
        m2 = pow(x % self.q, self.dq, self.q)
        return m2 + self.q * ((m1 - m2) * self.q_inv % self.p)

    def sign(self, message: bytes) -> bytes:
        """Full-domain-hash signature over SHA-256."""
        n = self.public.n
        digest = _digest_int(message, n)
        signature = self._signed.get(digest)
        if signature is None:
            value = self._private_op(digest)
            if pow(value, self.public.e, n) != digest:
                raise CryptoError(
                    "RSA self-check failed; signature withheld")
            signature = value.to_bytes(_modulus_bytes(n), "big")
            with self._signed_guard:
                if len(self._signed) >= _SIGN_MEMO_LIMIT:
                    del self._signed[next(iter(self._signed))]
                self._signed[digest] = signature
        return signature

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Invert :meth:`RsaPublicKey.encrypt`."""
        if len(ciphertext) < 4:
            raise CryptoError("truncated hybrid ciphertext")
        (wrapped_len,) = struct.unpack(">I", ciphertext[:4])
        if wrapped_len != _modulus_bytes(self.public.n):
            raise CryptoError("wrapped key is not one modulus wide")
        if len(ciphertext) < 4 + wrapped_len:
            raise CryptoError("truncated hybrid ciphertext")
        wrapped = int.from_bytes(ciphertext[4:4 + wrapped_len], "big")
        if not 0 < wrapped < self.public.n:
            raise CryptoError("wrapped key out of range")
        session_int = self._private_op(wrapped)
        if session_int >> 256:
            raise CryptoError("wrapped key does not unwrap to a session key")
        session_key = session_int.to_bytes(32, "big")
        body = ciphertext[4 + wrapped_len:]
        plaintext = RandomizedCipher(session_key).decrypt(body)
        if not isinstance(plaintext, bytes):
            raise CryptoError("hybrid payload must decode to bytes")
        return plaintext


def generate_keypair(
        bits: int = DEFAULT_RSA_BITS) -> tuple[RsaPublicKey, RsaPrivateKey]:
    """Generate an RSA keypair of ``bits`` (even, at least 512) bits."""
    if bits < DEFAULT_RSA_BITS or bits % 2:
        raise CryptoError(
            f"RSA size must be even and at least {DEFAULT_RSA_BITS}: {bits}")
    while True:
        p = primitives.generate_prime(bits // 2)
        q = primitives.generate_prime(bits // 2)
        if p == q:
            continue
        try:
            dp = primitives.modinv(PUBLIC_EXPONENT, p - 1)
            dq = primitives.modinv(PUBLIC_EXPONENT, q - 1)
        except CryptoError:
            continue
        public = RsaPublicKey(n=p * q)
        return public, RsaPrivateKey(
            public=public, p=p, q=q, dp=dp, dq=dq,
            q_inv=primitives.modinv(q, p))


def _digest_int(message: bytes, modulus: int) -> int:
    """SHA-256 digest expanded to the modulus size (full-domain hash)."""
    width = _modulus_bytes(modulus)
    out = bytearray()
    counter = 0
    while len(out) < width:
        out += hashlib.sha256(
            message + struct.pack(">I", counter)
        ).digest()
        counter += 1
    return int.from_bytes(bytes(out[:width]), "big") % modulus


def _modulus_bytes(modulus: int) -> int:
    return (modulus.bit_length() + 7) // 8
