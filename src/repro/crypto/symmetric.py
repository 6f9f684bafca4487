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
once at construction, and ``encrypt_many``/``decrypt_many`` process
whole columns with one Python-level dispatch.  A seal is one fused
sweep per value over the cached keyed-HMAC functions — SIV
(deterministic only), keystream block, XOR, tag — so a value costs the
format's floor of two HMACs (randomized) or three (deterministic); the
single-value ``encrypt`` is the same sweep over one value.  Both modes
encode through :func:`~repro.crypto.primitives.encode_many`.  Opens verify
every tag, then derive the keystreams in one sweep (``_open_many``).
Randomized IVs for a batch come from a single ``os.urandom`` draw.
:class:`DeterministicCipher` keeps an equality-aware
:class:`~repro.core.cache.Memo` each way: a repeated plaintext costs a
dict hit instead of a seal.  The memo lives on the cipher instance, so
on its :class:`~repro.crypto.keymanager.KeyMaterial`, which a subject
keeps in its keyring for as long as envelopes deliver it the same key
bytes (:mod:`repro.distributed.nodes`): the memo carries over from run
to run, and the engine seals each distinct value of a column once on
its own (:func:`repro.engine.codec.encrypt_column`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.cache import Memo
from repro.crypto import primitives
from repro.exceptions import CryptoError

_IV_LEN = 16
_TAG_LEN = 12
_ENC_DOMAIN = b"enc"
_MAC_DOMAIN = b"mac"
_SIV_DOMAIN = b"siv"
_BLOCK = 32  # one HMAC-SHA256 keystream block
_FIRST_BLOCK = bytes(8)  # the keystream's block counter 0, as ``>Q``

#: Entries in each deterministic memo, per cipher and direction (the
#: largest DETERMINISTIC column of the benchmark's TPC-H data has 3,000
#: values).
_MEMO_MAX = 8192

#: What a decrypt memo miss reads (a plaintext may be ``None``).
_ABSENT = object()


def _check_tag(ciphertext: bytes, mac) -> None:
    """Raise unless ``ciphertext`` ends in the tag of what precedes it.

    The one tag comparison of both opens, per value and bulk."""
    if len(ciphertext) < _IV_LEN + _TAG_LEN:
        raise CryptoError("ciphertext too short")
    if not primitives.constant_time_equal(
            ciphertext[-_TAG_LEN:], mac(ciphertext[:-_TAG_LEN])[:_TAG_LEN]):
        raise CryptoError("ciphertext authentication failed (wrong key?)")


class _StreamCipher:
    """Shared subkeys and open (tag check, keystream) for both modes;
    each mode's ``encrypt_many`` is its seal.

    The per-domain subkeys are derived once here, not per value.
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

    def _open_many(self, ciphertexts: Sequence[bytes]) -> list[bytes]:
        """Bulk :meth:`_open`: tags verify in input order (raising on
        the first bad one, like the per-value loop), then the keystreams
        for the survivors derive in one sweep."""
        mac = primitives.keyed_hmac(self._mac_key)
        ivs: list[bytes] = []
        bodies: list[bytes] = []
        for ciphertext in ciphertexts:
            _check_tag(ciphertext, mac)
            ivs.append(ciphertext[:_IV_LEN])
            bodies.append(ciphertext[_IV_LEN:-_TAG_LEN])
        streams = primitives.keystream_many(
            self._enc_key, ivs, [len(b) for b in bodies])
        xor = primitives.xor_bytes
        return [xor(body, stream) for body, stream in zip(bodies, streams)]

    def _open(self, ciphertext: bytes) -> bytes:
        _check_tag(ciphertext, primitives.keyed_hmac(self._mac_key))
        iv = ciphertext[:_IV_LEN]
        body = ciphertext[_IV_LEN:-_TAG_LEN]
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
        return self.encrypt_many((value,))[0]

    def encrypt_many(self, values: Sequence[object]) -> list[bytes]:
        """Bulk :meth:`encrypt`: one urandom draw for the batch IVs, then
        one fused sweep — keystream block, XOR, tag — per value."""
        count = len(values)
        if not count:
            return []
        ivs = primitives.random_bytes(_IV_LEN * count)
        enc_key = self._enc_key
        stream = primitives.keyed_hmac(enc_key)
        mac = primitives.keyed_hmac(self._mac_key)
        out: list[bytes] = []
        append = out.append
        for start, encoded in zip(range(0, _IV_LEN * count, _IV_LEN),
                                  primitives.encode_many(values)):
            iv = ivs[start:start + _IV_LEN]
            size = len(encoded)
            pad = stream(iv + _FIRST_BLOCK)[:size] if size <= _BLOCK \
                else primitives.keystream(enc_key, iv, size)
            sealed = iv + (int.from_bytes(encoded, "big")
                           ^ int.from_bytes(pad, "big")).to_bytes(size, "big")
            append(sealed + mac(sealed)[:_TAG_LEN])
        return out


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
        self._encrypt_memo = Memo(_MEMO_MAX)
        self._decrypt_memo = Memo(_MEMO_MAX)

    def encrypt(self, value: object) -> bytes:
        """Encrypt ``value`` under a plaintext-derived synthetic IV."""
        return self.encrypt_many((value,))[0]

    def encrypt_many(self, values: Sequence[object]) -> list[bytes]:
        """Bulk :meth:`encrypt`: a memoized plaintext is a dict hit, any
        other is one fused sweep — SIV, keystream block, XOR, tag."""
        memo = self._encrypt_memo
        enc_key = self._enc_key
        siv = primitives.keyed_hmac(self._siv_key)
        stream = primitives.keyed_hmac(enc_key)
        mac = primitives.keyed_hmac(self._mac_key)
        out: list[bytes] = []
        append = out.append
        for encoded in primitives.encode_many(values):
            token = memo.get(encoded)
            if token is None:
                iv = siv(encoded)[:_IV_LEN]
                size = len(encoded)
                pad = stream(iv + _FIRST_BLOCK)[:size] if size <= _BLOCK \
                    else primitives.keystream(enc_key, iv, size)
                sealed = iv + (int.from_bytes(encoded, "big")
                               ^ int.from_bytes(pad, "big")
                               ).to_bytes(size, "big")
                token = memo.store(encoded, sealed + mac(sealed)[:_TAG_LEN])
            append(token)
        return out

    def decrypt(self, ciphertext: bytes) -> object:
        """Recover the plaintext value (memoized per ciphertext)."""
        value = self._decrypt_memo.get(ciphertext, _ABSENT)
        if value is _ABSENT:
            value = self._decrypt_memo.store(
                ciphertext, primitives.decode_value(self._open(ciphertext)))
        return value

    def decrypt_many(self, ciphertexts: Iterable[bytes]) -> list[object]:
        """Bulk :meth:`decrypt`: repeated tokens decode once."""
        return [self.decrypt(c) for c in ciphertexts]
