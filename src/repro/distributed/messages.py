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
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from functools import cached_property

from repro.core.keys import QueryKey
from repro.core.requirements import EncryptionScheme
from repro.crypto.keymanager import KeyMaterial, KeyStore
from repro.crypto.paillier import PaillierPrivateKey, PaillierPublicKey
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.exceptions import DispatchError


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
        per payload however many of its sub-queries are evaluated."""
        return keystore_signature(self.keystore)


def serialize_key_material(material: KeyMaterial) -> dict:
    """JSON-safe encoding of one key's material."""
    encoded: dict[str, object] = {
        "attributes": sorted(material.query_key.attributes),
        "scheme": material.query_key.scheme.value,
    }
    if material.symmetric is not None:
        encoded["symmetric"] = material.symmetric.hex()
    if material.paillier_public is not None:
        encoded["paillier_n"] = hex(material.paillier_public.n)
    if material.paillier_private is not None:
        private = material.paillier_private
        encoded["paillier_lam"] = hex(private.lam)
        encoded["paillier_mu"] = hex(private.mu)
        encoded["paillier_p"] = hex(private.p)
        encoded["paillier_q"] = hex(private.q)
    return encoded


def deserialize_key_material(encoded: dict) -> KeyMaterial:
    """Inverse of :func:`serialize_key_material`."""
    try:
        query_key = QueryKey(
            attributes=frozenset(encoded["attributes"]),
            scheme=EncryptionScheme(encoded["scheme"]),
        )
        symmetric = bytes.fromhex(encoded["symmetric"]) \
            if "symmetric" in encoded else None
        public = private = None
        if "paillier_n" in encoded:
            public = PaillierPublicKey(int(encoded["paillier_n"], 16))
        if "paillier_lam" in encoded and public is not None:
            private = PaillierPrivateKey(
                public=public,
                lam=int(encoded["paillier_lam"], 16),
                mu=int(encoded["paillier_mu"], 16),
                p=int(encoded["paillier_p"], 16),
                q=int(encoded["paillier_q"], 16),
            )
        return KeyMaterial(
            query_key=query_key,
            symmetric=symmetric,
            paillier_public=public,
            paillier_private=private,
        )
    except (KeyError, ValueError) as error:
        raise DispatchError(f"malformed key material: {error}") from None


def keystore_signature(store: KeyStore | None) -> str:
    """Deterministic digest of a store's key material.

    Two stores with the same signature hold value-identical material, so
    the runtime's fragment cache keyed on it keeps hitting across
    queries: re-delivered envelopes carry *deserialized copies* of the
    same keys, which must not read as a key change.
    """
    if store is None:
        return "-"
    body = json.dumps(
        [serialize_key_material(store.material(name))
         for name in sorted(store.names())],
        sort_keys=True,
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def encode_payload(payload: SubQueryPayload) -> bytes:
    """Serialize a payload to bytes."""
    body = {
        "fragment_id": payload.fragment_id,
        "query_text": payload.query_text,
        "keys": [
            serialize_key_material(payload.keystore.material(name))
            for name in sorted(payload.keystore.names())
        ],
    }
    if payload.more:
        body["more"] = payload.more
    return json.dumps(body, sort_keys=True).encode("utf-8")


def decode_payload(blob: bytes) -> SubQueryPayload:
    """Inverse of :func:`encode_payload`."""
    try:
        body = json.loads(blob.decode("utf-8"))
        keystore = KeyStore(
            deserialize_key_material(k) for k in body["keys"]
        )
        return SubQueryPayload(
            fragment_id=body["fragment_id"],
            query_text=body["query_text"],
            keystore=keystore,
            more=tuple((other, text)
                       for other, text in body.get("more", ())),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise DispatchError(f"malformed payload: {error}") from None


def seal_envelope(payload: SubQueryPayload, sender_private: RsaPrivateKey,
                  recipient_public: RsaPublicKey) -> bytes:
    """Build ``[[payload] pri_sender ] pub_recipient``."""
    body = encode_payload(payload)
    signature = sender_private.sign(body)
    framed = struct.pack(">I", len(body)) + body + signature
    return sender_private.encrypt_for(recipient_public, framed)


def open_envelope(blob: bytes, recipient_private: RsaPrivateKey,
                  sender_public: RsaPublicKey) -> SubQueryPayload:
    """Decrypt, verify, and decode an envelope."""
    framed = recipient_private.decrypt(blob)
    if len(framed) < 4:
        raise DispatchError("truncated envelope")
    (body_len,) = struct.unpack(">I", framed[:4])
    body = framed[4:4 + body_len]
    signature = framed[4 + body_len:]
    if not sender_public.verify(body, signature):
        raise DispatchError("envelope signature verification failed")
    return decode_payload(body)
