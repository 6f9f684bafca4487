"""Envelopes and key-material serialization for query dispatch (§6).

"The communication to each subject will be signed with the private key of
the user and encrypted with the subject's public key" — the envelope
format here is exactly that ``[[q, keys] priU ] pubS`` construction:

* the payload — every sub-query (fragment id, query text) the user sends
  this subject for one query, and the serialized key material they need,
  once — is signed with the user's RSA private key;
* payload + signature are hybrid-encrypted under the recipient's RSA
  public key;
* the recipient decrypts with its private key and verifies the user's
  signature before acting, detecting tampering and spoofed dispatches.

Wire layout
-----------
The payload body is one length-prefixed record, every integer
big-endian::

    body   = name fragment_id ‖ text query_text
             ‖ u16 m ‖ m × (name fragment_id ‖ text query_text)
             ‖ keys
    keys   = u16 k ‖ k × key            (ascending key name, no repeats)
    key    = u16 a ‖ a × name attribute (ascending, no repeats)
             ‖ u8 scheme ‖ u8 parts
             ‖ [bytes symmetric]               parts & 1
             ‖ [int n]                         parts & 2
             ‖ [int λ ‖ int µ ‖ int p ‖ int q] parts & 4 (needs & 2)
    name   = u16 length ‖ UTF-8      text = u32 length ‖ UTF-8
    bytes  = u16 length ‖ raw        int  = u16 length ‖ magnitude,
                                            no leading zero byte

``scheme`` is the position in :data:`_SCHEMES`.  The key section is the
body's tail, and it has exactly one encoding per key store: a decoder
refuses any other (out of order, repeated, padded, trailing bytes), so
:attr:`SubQueryPayload.keys_signature` can hash the section as it
arrived and still equal :func:`keystore_signature` of the decoded store.
Every malformed body raises :class:`~repro.exceptions.DispatchError`.

Warm dispatch
-------------
A warm query re-sends each subject a body byte-identical to the last
one: the framed ``u32 len ‖ body ‖ signature`` is a pure function of
the sub-queries, the key store and the user's private key.  So only the
encryption is fresh per envelope — :meth:`RsaPrivateKey.encrypt_for
<repro.crypto.rsa.RsaPrivateKey.encrypt_for>` draws a new IV and tag
every time, and the wire bytes never repeat — and both ends remember
the rest:

* the sender keeps each framed body in the store's
  :attr:`~repro.crypto.keymanager.KeyStore.bodies`, keyed by the
  sub-queries and the sender's key.  The memo lives and dies with the
  store: a re-key (every re-plan, an adopting one included) builds new
  stores, so it frames and signs afresh, and no body outlives the keys
  it carries;
* the recipient, once :meth:`RsaPrivateKey.decrypt
  <repro.crypto.rsa.RsaPrivateKey.decrypt>` has checked the tag, looks
  ``(sender key, framed bytes)`` up in its keyring
  (:mod:`repro.distributed.nodes`).  An entry is stored only after its
  signature verified and its body decoded, so a hit means these exact
  bytes, body *and* signature, verified under this sender's key on this
  node since the ring was last flushed: verification is a pure function
  of the key and the bytes, so the hit answers for it, the same
  argument as the public key's *Verify memo*, keyed on the bytes
  themselves.  Any other bytes — a flipped byte, another signature over
  a remembered body, another sender — miss and are parsed, verified and
  decoded in full.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property

from repro.core.cache import LRU
from repro.core.keys import QueryKey
from repro.core.requirements import EncryptionScheme
from repro.crypto.keymanager import KeyMaterial, KeyStore
from repro.crypto.paillier import PaillierPrivateKey, PaillierPublicKey
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.exceptions import DispatchError

#: Wire code of each scheme: its position here.
_SCHEMES = (EncryptionScheme.RANDOMIZED, EncryptionScheme.PAILLIER,
            EncryptionScheme.DETERMINISTIC, EncryptionScheme.OPE)
_SCHEME_CODES = {scheme: code for code, scheme in enumerate(_SCHEMES)}

#: ``parts`` bits: which key material a key carries.
_SYMMETRIC, _PUBLIC, _PRIVATE = 1, 2, 4

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")


@dataclass(frozen=True)
class SubQueryPayload:
    """What a subject receives: its sub-queries and the keys they need.

    A subject holding several fragments of one query gets them in one
    message: the first as ``fragment_id``/``query_text``, the rest as
    ``(fragment id, text)`` pairs in ``more``.
    """

    fragment_id: str
    query_text: str
    keystore: KeyStore
    more: tuple[tuple[str, str], ...] = ()

    def carries(self, fragment_id: str) -> bool:
        """Whether this payload delivered sub-query ``fragment_id``."""
        return fragment_id == self.fragment_id \
            or any(fragment_id == other for other, _ in self.more)

    @cached_property
    def keys_signature(self) -> str:
        """:func:`keystore_signature` of the delivered keys, computed once
        per payload however many of its sub-queries are evaluated.  A
        decoded payload has it already: :func:`decode_payload` hashes the
        key section as it arrived."""
        return keystore_signature(self.keystore)


def keystore_signature(store: KeyStore | None) -> str:
    """Deterministic digest of a store's key material: SHA-256 of its
    canonical key section.

    Two stores with the same signature hold value-identical material, so
    the runtime's fragment cache keyed on it keeps hitting across
    queries: re-delivered envelopes carry *decoded copies* of the same
    keys, which must not read as a key change.
    """
    if store is None:
        return "-"
    return hashlib.sha256(_encode_keys(store)).hexdigest()


def encode_payload(payload: SubQueryPayload) -> bytes:
    """Serialize a payload to its body (module docstring, *Wire layout*)."""
    parts = [_name(payload.fragment_id), _text(payload.query_text),
             _count(len(payload.more))]
    for fragment_id, text in payload.more:
        parts += (_name(fragment_id), _text(text))
    parts.append(_encode_keys(payload.keystore))
    return b"".join(parts)


def decode_payload(blob: bytes, keyring: LRU | None = None,
                   ) -> SubQueryPayload:
    """Inverse of :func:`encode_payload`; refuses any other bytes.

    ``keyring`` (the recipient node's, :mod:`repro.distributed.nodes`)
    maps the SHA-256 of a key section this decoder accepted to the store
    it decoded.  A section byte-identical to one accepted before gets
    that store back, its ciphers and their memos warm; any other is
    decoded with every refusal and then remembered.
    """
    reader = _Reader(blob)
    fragment_id = reader.name()
    query_text = reader.text()
    more = tuple((reader.name(), reader.text())
                 for _ in range(reader.count()))
    signature = hashlib.sha256(blob[reader.at:]).hexdigest()
    keystore = None if keyring is None else keyring.get(signature)
    if keystore is None:
        keystore = _decode_keys(reader)
        if reader.at != len(blob):
            raise DispatchError("malformed payload: trailing bytes")
        if keyring is not None:
            keyring.put(signature, keystore)
    payload = SubQueryPayload(fragment_id, query_text, keystore, more)
    # Prime the cached property with the section as received.
    vars(payload)["keys_signature"] = signature
    return payload


def seal_envelope(payload: SubQueryPayload, sender_private: RsaPrivateKey,
                  recipient_public: RsaPublicKey) -> bytes:
    """Build ``[[payload] pri_sender ] pub_recipient``: the signed body
    framed once per key store (module docstring, *Warm dispatch*), the
    encryption fresh on every call."""
    bodies = payload.keystore.bodies
    sent = (payload.fragment_id, payload.query_text, payload.more,
            sender_private)
    framed = bodies.get(sent)
    if framed is None:
        body = encode_payload(payload)
        framed = bodies.store(sent, _U32.pack(len(body)) + body
                              + sender_private.sign(body))
    return sender_private.encrypt_for(recipient_public, framed)


def open_envelope(blob: bytes, recipient_private: RsaPrivateKey,
                  sender_public: RsaPublicKey,
                  keyring: LRU | None = None) -> SubQueryPayload:
    """Decrypt, verify, and decode an envelope.  The tag is checked on
    every call; the keyring is consulted only after it, and answers for
    the signature only with bytes it saw verify (module docstring, *Warm
    dispatch*)."""
    framed = recipient_private.decrypt(blob)
    opened = (sender_public, framed)
    # Peek first: an open is counted once, a miss by the section lookup.
    if keyring is not None and keyring.peek(opened) is not None:
        return keyring.get(opened)
    if len(framed) < 4:
        raise DispatchError("truncated envelope")
    (body_len,) = struct.unpack(">I", framed[:4])
    body = framed[4:4 + body_len]
    signature = framed[4 + body_len:]
    if not sender_public.verify(body, signature):
        raise DispatchError("envelope signature verification failed")
    payload = decode_payload(body, keyring)
    if keyring is not None:
        keyring.put(opened, payload)
    return payload


def _encode_keys(store: KeyStore) -> bytes:
    """The canonical key section of ``store``."""
    parts = [_count(len(store))]
    for name in sorted(store.names()):
        material = store.material(name)
        attributes = sorted(material.query_key.attributes)
        parts.append(_count(len(attributes)))
        parts += map(_name, attributes)
        flags = 0
        values: list[bytes] = []
        if material.symmetric is not None:
            flags |= _SYMMETRIC
            values.append(_sized(material.symmetric))
        if material.paillier_public is not None:
            flags |= _PUBLIC
            values.append(_int(material.paillier_public.n))
        if material.paillier_private is not None:
            flags |= _PRIVATE
            private = material.paillier_private
            values += (_int(private.lam), _int(private.mu),
                       _int(private.p), _int(private.q))
        parts.append(bytes((_SCHEME_CODES[material.scheme], flags)))
        parts += values
    return b"".join(parts)


def _decode_keys(reader: _Reader) -> KeyStore:
    store = KeyStore()
    previous = None
    for _ in range(reader.count()):
        attributes = [reader.name() for _ in range(reader.count())]
        if any(a >= b for a, b in zip(attributes, attributes[1:])):
            raise DispatchError(
                "malformed key material: attributes not in ascending order")
        scheme_code, flags = reader.take(2)
        if scheme_code >= len(_SCHEMES):
            raise DispatchError(
                f"malformed key material: unknown scheme code {scheme_code}")
        if flags & ~(_SYMMETRIC | _PUBLIC | _PRIVATE):
            raise DispatchError(
                f"malformed key material: unknown parts {flags:#x}")
        if flags & _PRIVATE and not flags & _PUBLIC:
            raise DispatchError(
                "malformed key material: Paillier private part without "
                "its public part")
        query_key = QueryKey(frozenset(attributes), _SCHEMES[scheme_code])
        if previous is not None and query_key.name <= previous:
            raise DispatchError(
                f"malformed key material: key {query_key.name!r} out of "
                f"order or repeated")
        previous = query_key.name
        symmetric = reader.sized() if flags & _SYMMETRIC else None
        public = private = None
        if flags & _PUBLIC:
            public = PaillierPublicKey(reader.integer())
        if flags & _PRIVATE:
            private = PaillierPrivateKey(
                public=public, lam=reader.integer(), mu=reader.integer(),
                p=reader.integer(), q=reader.integer())
        store.add(KeyMaterial(query_key=query_key, symmetric=symmetric,
                              paillier_public=public,
                              paillier_private=private))
    return store


def _count(value: int) -> bytes:
    if value > 0xFFFF:
        raise DispatchError(f"payload field too large for the wire: {value}")
    return _U16.pack(value)


def _sized(value: bytes) -> bytes:
    return _count(len(value)) + value


def _name(value: str) -> bytes:
    return _sized(value.encode("utf-8"))


def _text(value: str) -> bytes:
    encoded = value.encode("utf-8")
    return _U32.pack(len(encoded)) + encoded


def _int(value: int) -> bytes:
    return _sized(value.to_bytes((value.bit_length() + 7) // 8, "big"))


class _Reader:
    """A cursor over a body; every read checks what is left."""

    __slots__ = ("data", "at")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.at = 0

    def take(self, size: int) -> bytes:
        start = self.at
        end = self.at = start + size
        if end > len(self.data):
            raise DispatchError("malformed payload: truncated")
        return self.data[start:end]

    def count(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def sized(self) -> bytes:
        return self.take(self.count())

    def name(self) -> str:
        return _utf8(self.sized())

    def text(self) -> str:
        return _utf8(self.take(_U32.unpack(self.take(4))[0]))

    def integer(self) -> int:
        magnitude = self.sized()
        if magnitude[:1] == b"\x00":
            raise DispatchError("malformed key material: padded integer")
        return int.from_bytes(magnitude, "big")


def _utf8(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise DispatchError("malformed payload: invalid UTF-8") from None
