"""Hypothesis: the envelope body is one canonical record.

Generated payloads — unicode names, zero to several extra sub-queries,
keys of all four schemes with and without Paillier private parts, an
empty key store — decode to every field they were built from, and the
signature read from the received key section equals the one computed
from the store.  Every malformed body — each strict prefix, a trailing
byte, an unknown scheme code, invalid UTF-8, a private part without its
public part, a repeated key name, and the non-canonical forms — raises
:class:`DispatchError` and nothing else.
"""

import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.keys import QueryKey
from repro.core.requirements import EncryptionScheme
from repro.crypto.keymanager import KeyMaterial, KeyStore
from repro.crypto.paillier import generate_keypair
from repro.distributed.messages import (
    SubQueryPayload,
    decode_payload,
    encode_payload,
    keystore_signature,
)
from repro.exceptions import DispatchError

#: Two Paillier keypairs, drawn from rather than generated per example.
PAILLIER = [generate_keypair() for _ in range(2)]

NAMES = st.text(min_size=0, max_size=8)
ATTRIBUTES = st.frozensets(st.text(min_size=1, max_size=4),
                           min_size=1, max_size=3)


@st.composite
def materials(draw):
    query_key = QueryKey(draw(ATTRIBUTES),
                         draw(st.sampled_from(list(EncryptionScheme))))
    if query_key.scheme is not EncryptionScheme.PAILLIER:
        return KeyMaterial(query_key,
                           symmetric=draw(st.binary(max_size=40)))
    public, private = draw(st.sampled_from(PAILLIER))
    return KeyMaterial(query_key, paillier_public=public,
                       paillier_private=private if draw(st.booleans())
                       else None)


PAYLOADS = st.builds(
    SubQueryPayload,
    fragment_id=NAMES,
    query_text=st.text(max_size=40),
    keystore=st.lists(materials(), max_size=4,
                      unique_by=lambda m: m.name).map(KeyStore),
    more=st.lists(st.tuples(NAMES, st.text(max_size=20)),
                  max_size=3).map(tuple),
)


def _parts(material):
    private = material.paillier_private
    return (material.query_key, material.symmetric,
            material.paillier_public and material.paillier_public.n,
            private and (private.lam, private.mu, private.p, private.q))


@settings(max_examples=60, deadline=None)
@given(PAYLOADS)
@example(SubQueryPayload("", "", KeyStore()))
def test_decoding_gives_back_every_field(payload):
    decoded = decode_payload(encode_payload(payload))
    assert (decoded.fragment_id, decoded.query_text, decoded.more) \
        == (payload.fragment_id, payload.query_text, payload.more)
    names = payload.keystore.names()
    assert decoded.keystore.names() == names
    for name in names:
        assert _parts(decoded.keystore.material(name)) \
            == _parts(payload.keystore.material(name))
    assert decoded.keys_signature == keystore_signature(payload.keystore)
    assert encode_payload(decoded) == encode_payload(payload)


@settings(max_examples=30, deadline=None)
@given(PAYLOADS)
def test_every_strict_prefix_and_a_trailing_byte_are_refused(payload):
    body = encode_payload(payload)
    for end in range(len(body)):
        with pytest.raises(DispatchError, match="truncated"):
            decode_payload(body[:end])
    with pytest.raises(DispatchError, match="trailing"):
        decode_payload(body + b"\x00")


# Bodies written byte by byte from the module docstring's layout.

def u16(value):
    return struct.pack(">H", value)


def name(raw):
    return u16(len(raw)) + raw


def integer(value):
    return name(value.to_bytes((value.bit_length() + 7) // 8, "big"))


def key(attributes, scheme, parts, *values):
    return u16(len(attributes)) + b"".join(map(name, attributes)) \
        + bytes((scheme, parts)) + b"".join(values)


def body(*keys, fragment_id=b"f"):
    return name(fragment_id) + struct.pack(">I", 1) + b"q" + u16(0) \
        + u16(len(keys)) + b"".join(keys)


DETERMINISTIC, PAILLIER_CODE = 2, 1
SECRET = name(bytes(range(32)))
PUBLIC, PRIVATE = PAILLIER[0]
PAILLIER_PARTS = (integer(PUBLIC.n), integer(PRIVATE.lam),
                  integer(PRIVATE.mu), integer(PRIVATE.p),
                  integer(PRIVATE.q))


def test_the_written_layout_is_the_encoding():
    store = KeyStore([
        KeyMaterial(QueryKey(frozenset({"b", "a"}),
                             EncryptionScheme.DETERMINISTIC),
                    symmetric=bytes(range(32))),
        KeyMaterial(QueryKey(frozenset({"c"}), EncryptionScheme.PAILLIER),
                    paillier_public=PUBLIC, paillier_private=PRIVATE),
    ])
    written = body(key([b"a", b"b"], DETERMINISTIC, 1, SECRET),
                   key([b"c"], PAILLIER_CODE, 6, *PAILLIER_PARTS))
    assert encode_payload(SubQueryPayload("f", "q", store)) == written
    assert decode_payload(written).keystore.names() == {"kab", "kc"}


@pytest.mark.parametrize("written, reason", [
    (body(key([b"a"], 4, 1, SECRET)), "unknown scheme code"),
    (body(key([b"a"], 255, 1, SECRET)), "unknown scheme code"),
    (body(key([b"a"], DETERMINISTIC, 9, SECRET)), "unknown parts"),
    (body(key([b"a"], DETERMINISTIC, 1, SECRET), fragment_id=b"\xff"),
     "UTF-8"),
    (body(key([b"\xc3"], DETERMINISTIC, 1, SECRET)), "UTF-8"),
    (body(key([b"c"], PAILLIER_CODE, 4, *PAILLIER_PARTS[1:])),
     "without its public part"),
    (body(key([b"a"], DETERMINISTIC, 1, SECRET),
          key([b"a"], DETERMINISTIC, 1, SECRET)), "out of order or repeated"),
    # Distinct attribute sets, one name: ``kab``.
    (body(key([b"a", b"b"], DETERMINISTIC, 1, SECRET),
          key([b"ab"], DETERMINISTIC, 1, SECRET)), "out of order or repeated"),
    (body(key([b"b"], DETERMINISTIC, 1, SECRET),
          key([b"a"], DETERMINISTIC, 1, SECRET)), "out of order or repeated"),
    (body(key([b"b", b"a"], DETERMINISTIC, 1, SECRET)), "ascending"),
    (body(key([b"a", b"a"], DETERMINISTIC, 1, SECRET)), "ascending"),
    (body(key([b"c"], PAILLIER_CODE, 2, name(b"\x00" + PUBLIC.n.to_bytes(
        64, "big")))), "padded integer"),
], ids=["scheme-4", "scheme-255", "parts", "fragment-utf8",
        "attribute-utf8", "private-without-public", "repeated-name",
        "one-name-two-keys", "keys-out-of-order", "attributes-out-of-order",
        "repeated-attribute", "padded-integer"])
def test_malformed_body_raises_dispatch_error_alone(written, reason):
    with pytest.raises(DispatchError, match=reason):
        decode_payload(written)
