"""Textbook Paillier: double-``pow`` encryption and ``λ/µ`` decryption."""

from __future__ import annotations

from dataclasses import replace

from repro.crypto.paillier import (
    PaillierCiphertext,
    PaillierPrivateKey,
    PaillierPublicKey,
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
    """``λ/µ`` decryption: all a key stripped of ``p``/``q`` can run."""
    return replace(private, p=None, q=None).decrypt(ciphertext)
