"""Textbook Paillier: double-``pow`` encryption and ``λ/µ`` decryption."""

from __future__ import annotations

from math import lcm

from repro.crypto.paillier import (
    PaillierCiphertext,
    PaillierPrivateKey,
    PaillierPublicKey,
    _decode,
    _encode,
)


def encrypt_reference(public: PaillierPublicKey, value: int | float,
                      obfuscator: int | None = None) -> PaillierCiphertext:
    """``Enc(m) = (n+1)^m · r^n mod n²``, the message part a full modexp.

    Given the same ``obfuscator`` (an ``r^n mod n²`` value) this and
    :meth:`PaillierPublicKey.encrypt` produce the same ciphertext.
    """
    message = _encode(value, public.n)
    n2 = public.n_squared
    if obfuscator is None:
        obfuscator = pow(public._random_unit(), public.n, n2)
    cipher = (pow(public.n + 1, message, n2) * obfuscator) % n2
    return PaillierCiphertext(public, cipher)


def decrypt_reference(private: PaillierPrivateKey,
                      ciphertext: PaillierCiphertext) -> float | int:
    """``m = L(c^λ mod n²) · µ mod n`` with ``L(x) = (x-1)/n``, where
    ``λ = lcm(p-1, q-1)`` and ``µ = λ⁻¹ mod n`` are derived here from
    the key's primes."""
    n, n2 = private.public.n, private.public.n_squared
    lam = lcm(private.p - 1, private.q - 1)
    mu = pow(lam, -1, n)
    return _decode((pow(ciphertext.value, lam, n2) - 1) // n * mu % n, n)
