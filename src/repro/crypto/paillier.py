"""The Paillier additively homomorphic cryptosystem.

Used by the paper's tool to evaluate ``sum``/``avg`` aggregates over
encrypted values (§7).  This is a complete textbook implementation with
the usual ``g = n + 1`` simplification:

* ``Enc(m) = (n+1)^m · r^n  mod n²``
* ``Enc(a) · Enc(b) = Enc(a + b)`` — homomorphic addition
* ``Enc(a)^k = Enc(a · k)`` — plaintext multiplication

Fixed-point scaling supports decimal values (TPC-H prices), and negative
numbers are represented in the upper half of the plaintext space.

The hot path is built for batch encryption/decryption of whole columns:

* **binomial encrypt** — with ``g = n + 1``, ``(n+1)^m ≡ 1 + n·m
  (mod n²)``, so the message part is one multiply instead of a modular
  exponentiation (:meth:`PaillierPublicKey.encrypt`);
* **fixed-base obfuscators** — every ciphertext gets its own
  obfuscator ``h^α mod n²``: ``h = y^n`` is one random ``n``-th residue
  per key (and per process), ``α`` a fresh 256-bit exponent per value,
  and the power runs through a 4-bit fixed-base table of ``h``
  (``_fixed_base_table``, built on first use, about 128 KB at 512
  bits), so one obfuscator costs ≈64 modular multiplies instead of the
  textbook ``r^n`` modexp.  That ``h^α`` with a 256-bit ``α`` is
  indistinguishable from a uniform ``r^n`` is the *short-exponent
  assumption* under which fast Paillier / Damgård–Jurik encryption is
  run.  Each ``α`` is drawn fresh, so no obfuscator is derived from
  another;
* **CRT decrypt** — :func:`generate_keypair` retains ``p``/``q``, so
  decryption works mod ``p²`` and ``q²`` and recombines, roughly 3–4×
  cheaper than the ``λ/µ`` formula, which keys rebuilt without their
  primes still run;
* ``encrypt_values``/``decrypt_values`` bulk APIs over raw ciphertext
  integers (what :meth:`repro.crypto.keymanager.KeyMaterial.seal` and
  ``open`` hand out), and identity-aware ``__radd__`` so
  ``sum(ciphertexts)`` folds homomorphically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.crypto import primitives
from repro.exceptions import CryptoError

#: Fixed-point scale for fractional plaintexts (six decimal digits).
FIXED_POINT_SCALE = 10 ** 6

#: Bits of the fresh exponent ``α`` behind each obfuscator ``h^α``.
_ALPHA_BITS = 256

#: Width of one window of the fixed-base table: a row per 4-bit digit
#: of ``α``, holding ``h^(d·16^i)`` for every digit value ``d``.
_WINDOW = 4


@dataclass(frozen=True)
class PaillierPublicKey:
    """Public parameters ``(n, n²)`` plus the fixed-base obfuscator table."""

    n: int

    @property
    def n_squared(self) -> int:
        n2 = self.__dict__.get("_n2")
        if n2 is None:
            n2 = self.n * self.n
            object.__setattr__(self, "_n2", n2)
        return n2

    def encrypt(self, value: int | float,
                obfuscator: int | None = None) -> "PaillierCiphertext":
        """Encrypt a number (floats are fixed-point scaled).

        Uses the binomial shortcut ``Enc(m) = (1 + n·m) · r^n mod n²``;
        ``obfuscator`` (an ``r^n mod n²`` value) may be supplied
        explicitly — the property tests use that to pin this and the
        textbook formula to the same randomness.
        """
        message = _encode(value, self.n)
        n2 = self.n_squared
        if obfuscator is None:
            obfuscator = self._obfuscators(1)[0]
        return PaillierCiphertext(
            self, ((1 + self.n * message) * obfuscator) % n2
        )

    def encrypt_values(self, values: Sequence[int | float]) -> list[int]:
        """Bulk encrypt to *raw* ciphertext integers.

        The form :meth:`~repro.crypto.keymanager.KeyMaterial.seal`
        returns, so nothing but the numbers crosses a process boundary.
        """
        n, n2 = self.n, self.n_squared
        return [((1 + n * _encode(v, n)) * obfuscator) % n2
                for v, obfuscator in zip(values,
                                         self._obfuscators(len(values)))]

    # -- obfuscators ----------------------------------------------------
    def _obfuscators(self, count: int) -> list[int]:
        """``count`` independent obfuscators ``h^α mod n²``.

        One ``os.urandom`` draw supplies every ``α``; each power is one
        multiply per non-zero 4-bit digit of its ``α``.
        """
        table = self._fixed_base_table()
        n2 = self.n_squared
        size = _ALPHA_BITS // 8
        draws = primitives.random_bytes(size * count)
        mask = (1 << _WINDOW) - 1
        out: list[int] = []
        for start in range(0, size * count, size):
            alpha = int.from_bytes(draws[start:start + size], "big")
            power = 1
            for row in table:
                digit = alpha & mask
                if digit:
                    power = power * row[digit] % n2
                alpha >>= _WINDOW
            out.append(power)
        return out

    def _fixed_base_table(self) -> tuple[tuple[int, ...], ...]:
        """Row ``i`` holds ``h^(d·16^i) mod n²`` for ``d`` in ``0..15``.

        Built on first use from one true ``y^n`` exponentiation.  Two
        threads racing here may each build a table; either is a valid
        base, and the last one stored serves later draws.
        """
        table = self.__dict__.get("_table")
        if table is None:
            n, n2 = self.n, self.n_squared
            base = pow(self._random_unit(), n, n2)
            rows = []
            for _ in range(_ALPHA_BITS // _WINDOW):
                row = [1]
                for _ in range((1 << _WINDOW) - 1):
                    row.append(row[-1] * base % n2)
                rows.append(tuple(row))
                base = row[-1] * base % n2
            table = tuple(rows)
            object.__setattr__(self, "_table", table)
        return table

    # -- worker transport ----------------------------------------------
    def __getstate__(self) -> dict[str, int]:
        # Only the modulus travels: the fixed-base table and the
        # memoized n² are per-process state, rebuilt lazily on the
        # receiving side (which draws its own ``h``).
        return {"n": self.n}

    def __setstate__(self, state: dict[str, int]) -> None:
        object.__setattr__(self, "n", state["n"])

    def _random_unit(self) -> int:
        """A uniform unit of Z*_n (``gcd(r, n) = 1``, so ``r^n`` is a
        unit mod n² and every ciphertext stays decryptable)."""
        size = (self.n.bit_length() + 7) // 8
        while True:
            r = int.from_bytes(primitives.random_bytes(size), "big") % self.n
            if r > 1 and math.gcd(r, self.n) == 1:
                return r


@dataclass(frozen=True)
class PaillierPrivateKey:
    """Private parameters (``λ = lcm(p-1, q-1)``, ``µ = λ⁻¹ mod n``)
    and the prime factors ``p``/``q``: decryption runs via the Chinese
    Remainder Theorem over the half-size moduli, bit-identical to the
    textbook ``λ/µ`` formula (``tests/oracles/paillier_reference.py``).
    """

    public: PaillierPublicKey
    lam: int
    mu: int
    p: int
    q: int

    def decrypt(self, ciphertext: "PaillierCiphertext") -> float | int:
        """Recover the (possibly fractional, possibly negative) plaintext."""
        return _decode(self._decrypt_message(ciphertext), self.public.n)

    def decrypt_values(self, values: Sequence[int]) -> list[float | int]:
        """Bulk decrypt *raw* ciphertext integers.

        Raw ints carry no public key to check against — key membership
        is the caller's job before stripping the wrappers.
        """
        decode, n = _decode, self.public.n
        message = self._message_from_int
        return [decode(message(v), n) for v in values]

    # -- internals ------------------------------------------------------
    def _decrypt_message(self, ciphertext: "PaillierCiphertext") -> int:
        """The plaintext residue in ``[0, n)``."""
        if ciphertext.public.n != self.public.n:
            raise CryptoError("ciphertext under a different Paillier key")
        return self._message_from_int(ciphertext.value)

    def _message_from_int(self, cipher: int) -> int:
        p, q, n = self.p, self.q, self.public.n
        p2, q2, hp, hq, q_inv = self._crt_parts()
        mp = ((pow(cipher % p2, p - 1, p2) - 1) // p) * hp % p
        mq = ((pow(cipher % q2, q - 1, q2) - 1) // q) * hq % q
        return (mq + q * ((mp - mq) * q_inv % p)) % n

    def _crt_parts(self) -> tuple[int, int, int, int, int]:
        """Memoized ``(p², q², hp, hq, q⁻¹ mod p)``.

        ``hp = L_p((n+1)^(p-1) mod p²)⁻¹ mod p`` with ``L_p(x) =
        (x-1)/p`` (and symmetrically for ``q``) — the per-prime analogue
        of ``µ``.
        """
        parts = self.__dict__.get("_crt")
        if parts is None:
            p, q, n = self.p, self.q, self.public.n
            p2, q2 = p * p, q * q
            hp = primitives.modinv(
                (pow(n + 1, p - 1, p2) - 1) // p, p)
            hq = primitives.modinv(
                (pow(n + 1, q - 1, q2) - 1) // q, q)
            q_inv = primitives.modinv(q, p)
            parts = (p2, q2, hp, hq, q_inv)
            object.__setattr__(self, "_crt", parts)
        return parts


@dataclass(frozen=True)
class PaillierCiphertext:
    """A ciphertext with its public key, supporting ``+``, ``sum()``, ``*``."""

    public: PaillierPublicKey
    value: int

    def __add__(self, other: "PaillierCiphertext") -> "PaillierCiphertext":
        if not isinstance(other, PaillierCiphertext):
            return NotImplemented
        if other.public.n != self.public.n:
            raise CryptoError("cannot add ciphertexts under different keys")
        return PaillierCiphertext(
            self.public, (self.value * other.value) % self.public.n_squared
        )

    def __radd__(self, other: object) -> "PaillierCiphertext":
        """Identity-aware right addition so ``sum(ciphertexts)`` works:
        the implicit integer ``0`` start value folds to identity."""
        if isinstance(other, int) and other == 0:
            return self
        if isinstance(other, PaillierCiphertext):
            return other.__add__(self)
        return NotImplemented



def generate_keypair(bits: int = 512) -> tuple[PaillierPublicKey, PaillierPrivateKey]:
    """Generate a Paillier keypair with an ``bits``-bit modulus.

    512 bits keeps tests fast; real deployments use 2048+.
    """
    half = bits // 2
    while True:
        p = primitives.generate_prime(half)
        q = primitives.generate_prime(half)
        if p != q:
            break
    n = p * q
    lam = _lcm(p - 1, q - 1)
    mu = primitives.modinv(lam, n)
    public = PaillierPublicKey(n)
    return public, PaillierPrivateKey(public, lam, mu, p=p, q=q)


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


def _encode(value: int | float, n: int) -> int:
    """Fixed-point encode; negatives go to the upper half of Z_n."""
    scaled = round(value * FIXED_POINT_SCALE)
    if abs(scaled) > n // 4:
        raise CryptoError(f"plaintext {value} out of range for modulus")
    return scaled % n


def _decode(message: int, n: int) -> float | int:
    if message > n // 2:
        message -= n
    if message % FIXED_POINT_SCALE == 0:
        return message // FIXED_POINT_SCALE
    return message / FIXED_POINT_SCALE
