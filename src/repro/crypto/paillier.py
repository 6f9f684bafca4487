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
* **obfuscator pool** — the random ``r^n mod n²`` factors are
  precomputed in batches off the per-value path: each refill draws a few
  fresh units, raises them to ``n`` once, and expands them into many
  obfuscators by modular products (a product of ``r_i^n`` is
  ``(∏ r_i)^n``, still a valid obfuscator; adequate randomness for this
  simulator, not a hardened RNG — real deployments precompute true
  ``r^n`` offline, which is exactly the cost model's assumption).
  Each key guards its pool with its own lock; an empty pool is
  refilled by the encrypt that finds it empty;
* **CRT decrypt** — :func:`generate_keypair` retains ``p``/``q``, so
  decryption works mod ``p²`` and ``q²`` and recombines, roughly 3–4×
  cheaper than the ``λ/µ`` formula, which keys rebuilt without their
  primes still run;
* ``encrypt_many``/``decrypt_many`` bulk APIs and identity-aware
  ``__radd__`` so ``sum(ciphertexts)`` folds homomorphically.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.crypto import primitives
from repro.exceptions import CryptoError

#: Fixed-point scale for fractional plaintexts (six decimal digits).
FIXED_POINT_SCALE = 10 ** 6

#: Obfuscator pool shape: each refill computes ``_POOL_SEEDS`` true
#: ``r^n`` exponentiations and stretches them into ``_POOL_TARGET``
#: obfuscators by modular products, so the amortized per-encryption cost
#: is ``_POOL_SEEDS/_POOL_TARGET`` exponentiations plus ~two multiplies.
_POOL_SEEDS = 4
_POOL_TARGET = 128

#: Guards only the *lazy creation* of each key's pool lock.  The pool
#: itself is protected by the per-key lock (public-key objects are
#: shared across per-subject keystores and concurrent runs encrypt
#: under one key — check-then-pop must be atomic), so two keys
#: never serialize on each other's refills.  Locks live in the instance
#: ``__dict__`` and are excluded from pickling/copying by
#: ``__getstate__``.
_LOCKS_GUARD = threading.Lock()


@dataclass(frozen=True)
class PaillierPublicKey:
    """Public parameters ``(n, n²)`` plus the precomputed obfuscator pool."""

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
            obfuscator = self._next_obfuscator()
        return PaillierCiphertext(
            self, ((1 + self.n * message) * obfuscator) % n2
        )

    def encrypt_many(self, values: Sequence[int | float],
                     ) -> list["PaillierCiphertext"]:
        """Bulk :meth:`encrypt`: one dispatch per column."""
        return [
            PaillierCiphertext(self, v) for v in self.encrypt_values(values)
        ]

    def encrypt_values(self, values: Sequence[int | float]) -> list[int]:
        """Bulk encrypt to *raw* ciphertext integers.

        The worker-transport form: parallel chunks ship plain ints and
        the caller rebuilds :class:`PaillierCiphertext` wrappers, so
        nothing but the numbers crosses the process boundary.
        """
        n, n2 = self.n, self.n_squared
        encode, draw = _encode, self._next_obfuscator
        return [((1 + n * encode(v, n)) * draw()) % n2 for v in values]

    # -- obfuscator pool ------------------------------------------------
    def precompute_obfuscators(self, count: int = _POOL_TARGET) -> None:
        """Refill the ``r^n`` pool eagerly (off the encryption hot path)."""
        target = max(count, _POOL_TARGET)
        seeds = self._pool_seeds()
        with self._pool_lock:
            self._extend_pool(seeds, target)

    def _next_obfuscator(self) -> int:
        with self._pool_lock:
            pool = self._pool
            if not pool:
                self._extend_pool(self._pool_seeds(), _POOL_TARGET)
            return pool.pop()

    @property
    def _pool_lock(self) -> threading.Lock:
        lock = self.__dict__.get("_lock")
        if lock is None:
            with _LOCKS_GUARD:
                lock = self.__dict__.get("_lock")
                if lock is None:
                    lock = threading.Lock()
                    object.__setattr__(self, "_lock", lock)
        return lock

    @property
    def _pool(self) -> list[int]:
        # Callers hold _pool_lock (lazy init is a check-then-set too).
        pool = self.__dict__.get("_obfuscators")
        if pool is None:
            pool = []
            object.__setattr__(self, "_obfuscators", pool)
        return pool

    def _pool_seeds(self) -> list[int]:
        """The ``_POOL_SEEDS`` true ``r^n`` exponentiations of a refill.

        Touches no shared state — only :func:`os.urandom` and arithmetic
        on the frozen modulus — so :meth:`precompute_obfuscators` pays
        the expensive pows before taking the pool lock.
        """
        n, n2 = self.n, self.n_squared
        return [pow(self._random_unit(), n, n2) for _ in range(_POOL_SEEDS)]

    def _extend_pool(self, seeds: list[int], target: int) -> None:
        # Caller holds _pool_lock.
        n2 = self.n_squared
        pool = self._pool
        if len(pool) >= target:
            return
        mix = seeds[-1]
        while len(pool) < target:
            for seed in seeds:
                mix = (mix * seed) % n2
                pool.append(mix)

    # -- worker transport ----------------------------------------------
    def __getstate__(self) -> dict[str, int]:
        # Only the modulus travels: the obfuscator pool, its lock, and
        # the memoized n² are per-process state, rebuilt lazily on the
        # receiving side.  (Also what keeps deepcopy lock-free.)
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
    """Private parameters (``λ = lcm(p-1, q-1)``, ``µ = λ⁻¹ mod n``).

    When the prime factors ``p``/``q`` are retained (the default from
    :func:`generate_keypair`), decryption runs via the Chinese Remainder
    Theorem over the half-size moduli; without them it falls back to the
    ``λ/µ`` formula — the two are bit-identical.
    """

    public: PaillierPublicKey
    lam: int
    mu: int
    p: int | None = None
    q: int | None = None

    def decrypt(self, ciphertext: "PaillierCiphertext") -> float | int:
        """Recover the (possibly fractional, possibly negative) plaintext."""
        return _decode(self._decrypt_message(ciphertext), self.public.n)

    def decrypt_many(self, ciphertexts: Iterable["PaillierCiphertext"],
                     pool=None) -> list[float | int]:
        """Bulk :meth:`decrypt`: one dispatch per column.

        With a :class:`~repro.parallel.WorkerPool` the column partitions
        into per-worker chunks of raw ciphertext integers — CRT decrypt
        dominates the cost, so throughput scales near-linearly with
        workers — reassembled in order, bit-identical to the inline
        loop.  Key-membership checks stay parent-side.
        """
        cts = list(ciphertexts)
        if pool is not None and pool.should_parallelize(len(cts)):
            n = self.public.n
            for ciphertext in cts:
                if ciphertext.public.n != n:
                    raise CryptoError(
                        "ciphertext under a different Paillier key")
            from repro.parallel import kernels

            return pool.map_chunks(
                kernels.paillier_decrypt_chunk, kernels.dumps(self),
                [ciphertext.value for ciphertext in cts])
        decode, n = _decode, self.public.n
        decrypt = self._decrypt_message
        return [decode(decrypt(c), n) for c in cts]

    def decrypt_values(self, values: Sequence[int]) -> list[float | int]:
        """Bulk decrypt *raw* ciphertext integers (worker-transport form).

        Raw ints carry no public key to check against — key membership
        is the caller's job before stripping the wrappers.
        """
        decode, n = _decode, self.public.n
        message = self._message_from_int
        return [decode(message(v), n) for v in values]

    # -- internals ------------------------------------------------------
    def _decrypt_message(self, ciphertext: "PaillierCiphertext") -> int:
        """The plaintext residue in ``[0, n)`` (CRT when p/q are held)."""
        if ciphertext.public.n != self.public.n:
            raise CryptoError("ciphertext under a different Paillier key")
        return self._message_from_int(ciphertext.value)

    def _message_from_int(self, cipher: int) -> int:
        if self.p is None or self.q is None:
            return self._reference_message(cipher)
        p, q, n = self.p, self.q, self.public.n
        p2, q2, hp, hq, q_inv = self._crt_parts()
        mp = ((pow(cipher % p2, p - 1, p2) - 1) // p) * hp % p
        mq = ((pow(cipher % q2, q - 1, q2) - 1) // q) * hq % q
        return (mq + q * ((mp - mq) * q_inv % p)) % n

    def _reference_message(self, cipher: int) -> int:
        n = self.public.n
        n2 = self.public.n_squared
        u = pow(cipher, self.lam, n2)
        return ((u - 1) // n * self.mu) % n

    def _crt_parts(self) -> tuple[int, int, int, int, int]:
        """Memoized ``(p², q², hp, hq, q⁻¹ mod p)``.

        ``hp = L_p((n+1)^(p-1) mod p²)⁻¹ mod p`` with ``L_p(x) =
        (x-1)/p`` (and symmetrically for ``q``) — the per-prime analogue
        of ``µ``.
        """
        parts = self.__dict__.get("_crt")
        if parts is None:
            p, q, n = self.p, self.q, self.public.n
            assert p is not None and q is not None
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

    def add_plain(self, value: int | float) -> "PaillierCiphertext":
        """Homomorphically add a plaintext constant (binomial form)."""
        message = _encode(value, self.public.n)
        n2 = self.public.n_squared
        return PaillierCiphertext(
            self.public,
            (self.value * (1 + self.public.n * message)) % n2,
        )

    def multiply_plain(self, factor: int) -> "PaillierCiphertext":
        """Homomorphically multiply by a plaintext integer."""
        if not isinstance(factor, int):
            raise CryptoError("plaintext factors must be integers")
        exponent = factor % self.public.n
        return PaillierCiphertext(
            self.public, pow(self.value, exponent, self.public.n_squared)
        )


def generate_keypair(bits: int = 512) -> tuple[PaillierPublicKey, PaillierPrivateKey]:
    """Generate a Paillier keypair with an ``bits``-bit modulus.

    512 bits keeps tests fast; real deployments use 2048+.  The private
    key retains ``p``/``q`` so decryption takes the CRT fast path.
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
