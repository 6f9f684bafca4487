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
* :meth:`RsaPrivateKey.encrypt_for` / :meth:`RsaPrivateKey.decrypt` —
  hybrid encryption from a sender key to a recipient key (an RSA-wrapped
  session key + a randomized stream body), so payloads of any size are
  supported.  The wire form is ``len ‖ wrapped ‖ IV ‖ body ‖ tag``.

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
key and the digest, so each private key keeps (digest → signature)
pairs in a :class:`~repro.core.cache.Memo` and re-signing
byte-identical bytes — every warm re-dispatch of a query — costs the
hash alone.  The memo hangs off the key object, never a name: another
key signing the same bytes pays its own modexps and gets its own
signature.  Only signatures that passed the self-check are kept, and a
pure-function memo needs no invalidation, only its size bound.

**Verify memo.**  Verification is a pure function of the key, the
digest and the signature bytes, so each public key keeps the (digest →
signature bytes) pairs that verified in a
:class:`~repro.core.cache.Memo`, and re-verifying a warm re-dispatch
costs the hash alone.  The digest is computed on every call, and a hit
needs the very same signature bytes: another signature over the same
message — an impostor's, or one byte flipped — misses and pays its
modexp.  Only a successful verify is stored, and the memo hangs off the
key object, so another public key verifies for itself.

**Session.**  A sender's private key keeps one session per recipient
public key: a fresh 32-byte key, RSA-wrapped once under the recipient's
public key, and the :class:`RandomizedCipher` over it.  Every body is
sealed under that cipher with a fresh IV and its own HMAC tag, and the
session is replaced after :data:`_SESSION_USES` envelopes.  The table
hangs off the *sender's* key object because one runtime dispatches for
several users: keyed by recipient alone, user B's envelopes would ride
user A's session key.  The recipient's :class:`~repro.core.cache.Memo`
maps wrapped bytes → session cipher, so it pays the RSA private
op once per session instead of once per envelope.  Like the sign memo
this is a pure-function memo — the unwrap depends on (key, wrapped bytes)
alone — and it is kept honest on every call: the width check always
runs; on a miss the range and ≤ 256-bit checks run before the private
op; the body's tag is verified on every open, hit or miss; and an entry
is stored only after its body authenticated, so a forged blob leaves
the memo as it was.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from dataclasses import dataclass, field

from repro.core.cache import Memo
from repro.crypto import primitives
from repro.crypto.symmetric import RandomizedCipher
from repro.exceptions import CryptoError

#: Standard public exponent.
PUBLIC_EXPONENT = 65537

#: Modulus size used wherever a caller does not choose one; also the
#: smallest :func:`generate_keypair` accepts.
DEFAULT_RSA_BITS = 512

#: Entries in each of a key's memos: signatures, verified signatures,
#: unwrapped sessions.
_MEMO_LIMIT = 256

#: Envelopes one sender seals under one session key before it wraps a
#: fresh one for that recipient.
_SESSION_USES = 1024


def _memo():
    """A per-key memo field, sized when the key is built."""
    return field(default_factory=lambda: Memo(_MEMO_LIMIT), init=False,
                 repr=False, compare=False)


@dataclass(frozen=True)
class RsaPublicKey:
    """Public half of an RSA keypair."""

    n: int
    e: int = PUBLIC_EXPONENT
    #: Digest → the signature bytes that verified for it (module
    #: docstring, *Verify memo*); not part of the key's value.
    _verified: Memo = _memo()

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Whether ``signature`` is valid for ``message``."""
        n = self.n
        digest = _digest_int(message, n)
        if self._verified.get(digest) == signature:
            return True
        try:
            if len(signature) != _modulus_bytes(n):
                return False
            sig_int = int.from_bytes(signature, "big")
        except (TypeError, ValueError):
            return False
        if not 0 < sig_int < n or pow(sig_int, self.e, n) != digest:
            return False
        self._verified.store(digest, bytes(signature))
        return True


class _Session:
    """One sender's current session with one recipient (module
    docstring, *Session*)."""

    __slots__ = ("prefix", "cipher", "uses")

    def __init__(self, recipient: RsaPublicKey) -> None:
        key = primitives.generate_key(32)
        width = _modulus_bytes(recipient.n)
        wrapped = pow(int.from_bytes(key, "big"), recipient.e, recipient.n)
        #: ``len ‖ wrapped``, the head of every envelope of the session.
        self.prefix = struct.pack(">I", width) + wrapped.to_bytes(width, "big")
        self.cipher = RandomizedCipher(key)
        #: Envelopes sealed so far.
        self.uses = 0


@dataclass(frozen=True)
class RsaPrivateKey:
    """Private half of an RSA keypair, held in CRT form."""

    public: RsaPublicKey
    p: int
    q: int
    dp: int
    dq: int
    q_inv: int
    #: Digest → self-checked signature (module docstring, *Sign
    #: memo*); not part of the key's value.
    _signed: Memo = _memo()
    #: Recipient → this key's current session with it (module docstring,
    #: *Session*): one entry per recipient this key has sealed for.
    _sessions: dict[RsaPublicKey, _Session] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _sessions_guard: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False,
        compare=False)
    #: Wrapped session key → its cipher; only sessions whose body
    #: authenticated enter.
    _unwrapped: Memo = _memo()

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
            signature = self._signed.store(
                digest, value.to_bytes(_modulus_bytes(n), "big"))
        return signature

    def encrypt_for(self, recipient: RsaPublicKey, payload: bytes) -> bytes:
        """Hybrid-encrypt ``payload`` for ``recipient`` under this key's
        current session with it (module docstring, *Session*)."""
        sessions = self._sessions
        with self._sessions_guard:
            session = sessions.get(recipient)
            if session is None or session.uses >= _SESSION_USES:
                session = sessions[recipient] = _Session(recipient)
            session.uses += 1
        return session.prefix + session.cipher.encrypt(payload)

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Invert :meth:`encrypt_for`; the session key is unwrapped once
        per session, the body's tag checked every time."""
        width = _modulus_bytes(self.public.n)
        if len(ciphertext) < 4:
            raise CryptoError("truncated hybrid ciphertext")
        (wrapped_len,) = struct.unpack(">I", ciphertext[:4])
        if wrapped_len != width:
            raise CryptoError("wrapped key is not one modulus wide")
        if len(ciphertext) < 4 + width:
            raise CryptoError("truncated hybrid ciphertext")
        wrapped = ciphertext[4:4 + width]
        body = ciphertext[4 + width:]
        cipher = self._unwrapped.get(wrapped)
        if cipher is None:
            cipher = RandomizedCipher(self._unwrap(wrapped))
            plaintext = cipher.decrypt(body)
            self._unwrapped.store(wrapped, cipher)
        else:
            plaintext = cipher.decrypt(body)
        if not isinstance(plaintext, bytes):
            raise CryptoError("hybrid payload must decode to bytes")
        return plaintext

    def _unwrap(self, wrapped: bytes) -> bytes:
        """The session key inside ``wrapped``: one RSA private op."""
        value = int.from_bytes(wrapped, "big")
        if not 0 < value < self.public.n:
            raise CryptoError("wrapped key out of range")
        session_int = self._private_op(value)
        if session_int >> 256:
            raise CryptoError("wrapped key does not unwrap to a session key")
        return session_int.to_bytes(32, "big")


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
