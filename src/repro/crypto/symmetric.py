"""Randomized and deterministic symmetric encryption.

Two modes over the HMAC-PRF stream cipher of
:mod:`repro.crypto.primitives`:

* :class:`RandomizedCipher` — a fresh random IV per encryption; two
  encryptions of the same value are unlinkable (the paper's "randomized
  symmetric encryption", used when no computation over ciphertexts is
  needed);
* :class:`DeterministicCipher` — a synthetic IV derived from the
  plaintext (SIV construction); equal plaintexts yield equal ciphertexts,
  supporting equality conditions and equi-joins on encrypted values (the
  paper's "deterministic symmetric encryption").

Both modes append a truncated HMAC tag, so decryption with a wrong key or
a tampered ciphertext fails loudly instead of returning garbage.

Built for columnar batch work: the enc/mac (and SIV) subkeys are derived
once at construction, ``encrypt_many``/``decrypt_many`` process whole
columns with one Python-level dispatch and derive the column's
keystreams and tags in a single HMAC sweep per chunk
(``_seal_many``/``_open_many``) instead of per-value ``prf`` calls,
randomized IVs for a batch come
from a single ``os.urandom`` draw, and :class:`DeterministicCipher`
keeps a bounded equality-aware memo — equal plaintexts (exactly what
equi-join and grouping columns repeat thousands of times) pay the PRF
walk once.  Ciphertexts are bit-identical to the per-call construction.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.crypto import primitives
from repro.exceptions import CryptoError

_IV_LEN = 16
_TAG_LEN = 12
_ENC_DOMAIN = b"enc"
_MAC_DOMAIN = b"mac"
_SIV_DOMAIN = b"siv"

#: Bound on the deterministic encrypt/decrypt memos (entries, per
#: cipher).  A full memo is dropped wholesale — column value sets are
#: small relative to this in every workload we run.
_MEMO_MAX = 8192


class _StreamCipher:
    """Shared IV + keystream + tag machinery for both modes.

    The per-domain subkeys are derived once here; the seed derived them
    inside every ``_seal``/``_open`` call.
    """

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise CryptoError("symmetric keys must be at least 16 bytes")
        self._key = key
        self._enc_key = primitives.prf(key, _ENC_DOMAIN)
        self._mac_key = primitives.prf(key, _MAC_DOMAIN)

    @property
    def key(self) -> bytes:
        """The raw key material."""
        return self._key

    def _seal(self, iv: bytes, encoded: bytes) -> bytes:
        body = primitives.xor_bytes(
            encoded,
            primitives.keystream(self._enc_key, iv, len(encoded)),
        )
        tag = primitives.prf(self._mac_key, iv + body)[:_TAG_LEN]
        return iv + body + tag

    def _seal_many(self, ivs: Sequence[bytes],
                   encodeds: Sequence[bytes]) -> list[bytes]:
        """Bulk :meth:`_seal`: one HMAC sweep per column.

        The enc and mac key schedules are fetched once; the column's
        keystreams derive in a single sweep
        (:func:`~repro.crypto.primitives.keystream_many`) instead of a
        per-value ``prf`` call.  Ciphertexts are bit-identical to the
        per-value path.
        """
        streams = primitives.keystream_many(
            self._enc_key, list(ivs), [len(e) for e in encodeds])
        mac = primitives.keyed_hmac(self._mac_key)
        xor = primitives.xor_bytes
        out: list[bytes] = []
        for iv, encoded, stream in zip(ivs, encodeds, streams):
            sealed = iv + xor(encoded, stream)
            out.append(sealed + mac(sealed)[:_TAG_LEN])
        return out

    def _open_many(self, ciphertexts: Sequence[bytes]) -> list[bytes]:
        """Bulk :meth:`_open`: tags verify in input order (raising on
        the first bad one, like the per-value loop), then the keystreams
        for the survivors derive in one sweep."""
        mac = primitives.keyed_hmac(self._mac_key)
        equal = primitives.constant_time_equal
        ivs: list[bytes] = []
        bodies: list[bytes] = []
        for ciphertext in ciphertexts:
            if len(ciphertext) < _IV_LEN + _TAG_LEN:
                raise CryptoError("ciphertext too short")
            if not equal(ciphertext[-_TAG_LEN:],
                         mac(ciphertext[:-_TAG_LEN])[:_TAG_LEN]):
                raise CryptoError(
                    "ciphertext authentication failed (wrong key?)")
            ivs.append(ciphertext[:_IV_LEN])
            bodies.append(ciphertext[_IV_LEN:-_TAG_LEN])
        streams = primitives.keystream_many(
            self._enc_key, ivs, [len(b) for b in bodies])
        xor = primitives.xor_bytes
        return [xor(body, stream) for body, stream in zip(bodies, streams)]

    def _open(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) < _IV_LEN + _TAG_LEN:
            raise CryptoError("ciphertext too short")
        iv = ciphertext[:_IV_LEN]
        body = ciphertext[_IV_LEN:-_TAG_LEN]
        tag = ciphertext[-_TAG_LEN:]
        expected = primitives.prf(self._mac_key, iv + body)[:_TAG_LEN]
        if not primitives.constant_time_equal(tag, expected):
            raise CryptoError("ciphertext authentication failed (wrong key?)")
        return primitives.xor_bytes(
            body,
            primitives.keystream(self._enc_key, iv, len(body)),
        )

    def decrypt(self, ciphertext: bytes) -> object:
        """Recover the plaintext value."""
        return primitives.decode_value(self._open(ciphertext))

    def decrypt_many(self, ciphertexts: Iterable[bytes]) -> list[object]:
        """Bulk :meth:`decrypt`: one dispatch for a whole column.

        Equivalent to ``[self.decrypt(c) for c in ciphertexts]`` —
        including the :class:`~repro.exceptions.CryptoError` raised on
        the first tampered or wrong-key ciphertext — but runs the
        column's tag checks and keystreams as one HMAC sweep.
        """
        decode = primitives.decode_value
        return [decode(e) for e in self._open_many(list(ciphertexts))]


class RandomizedCipher(_StreamCipher):
    """IND-CPA-style randomized encryption (fresh IV per call).

    Examples
    --------
    >>> cipher = RandomizedCipher(b"k" * 32)
    >>> cipher.decrypt(cipher.encrypt("stroke"))
    'stroke'
    >>> cipher.encrypt(1) != cipher.encrypt(1)
    True
    """

    def encrypt(self, value: object) -> bytes:
        """Encrypt ``value`` under a fresh random IV."""
        return self._seal(
            primitives.random_bytes(_IV_LEN), primitives.encode_value(value)
        )

    def encrypt_many(self, values: Sequence[object]) -> list[bytes]:
        """Bulk :meth:`encrypt`: one urandom draw for the batch IVs, one
        HMAC sweep for the column's keystreams and tags."""
        count = len(values)
        if not count:
            return []
        ivs = primitives.random_bytes(_IV_LEN * count)
        encode = primitives.encode_value
        return self._seal_many(
            [ivs[i * _IV_LEN:(i + 1) * _IV_LEN] for i in range(count)],
            [encode(v) for v in values],
        )


class DeterministicCipher(_StreamCipher):
    """Equality-preserving deterministic encryption (SIV mode).

    Equal plaintexts produce equal ciphertexts, so both directions are
    memoized (bounded): a repeated value costs a dict hit instead of a
    PRF walk.  The decrypt memo only ever holds ciphertexts this cipher
    itself produced or fully authenticated, so tampered inputs always
    reach the tag check and raise.

    Examples
    --------
    >>> cipher = DeterministicCipher(b"k" * 32)
    >>> cipher.encrypt("stroke") == cipher.encrypt("stroke")
    True
    >>> cipher.encrypt("stroke") == cipher.encrypt("cardiac")
    False
    """

    def __init__(self, key: bytes) -> None:
        super().__init__(key)
        self._siv_key = primitives.prf(key, _SIV_DOMAIN)
        self._encrypt_memo: dict[bytes, bytes] = {}
        self._decrypt_memo: dict[bytes, object] = {}

    def encrypt(self, value: object) -> bytes:
        """Encrypt ``value`` under a plaintext-derived synthetic IV."""
        encoded = primitives.encode_value(value)
        memo = self._encrypt_memo
        token = memo.get(encoded)
        if token is None:
            iv = primitives.prf(self._siv_key, encoded)[:_IV_LEN]
            token = self._seal(iv, encoded)
            if len(memo) >= _MEMO_MAX:
                memo.clear()
            memo[encoded] = token
        return token

    def encrypt_many(self, values: Sequence[object]) -> list[bytes]:
        """Bulk :meth:`encrypt`; each distinct plaintext is sealed once."""
        return [self.encrypt(v) for v in values]

    def decrypt(self, ciphertext: bytes) -> object:
        """Recover the plaintext value (memoized per ciphertext)."""
        memo = self._decrypt_memo
        if ciphertext in memo:
            return memo[ciphertext]
        value = primitives.decode_value(self._open(ciphertext))
        if len(memo) >= _MEMO_MAX:
            memo.clear()
        memo[ciphertext] = value
        return value

    def decrypt_many(self, ciphertexts: Iterable[bytes]) -> list[object]:
        """Bulk :meth:`decrypt`: repeated tokens decode once."""
        return [self.decrypt(c) for c in ciphertexts]
