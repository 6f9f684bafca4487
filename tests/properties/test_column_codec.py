"""Hypothesis: a column opens only under the key and scheme it was
sealed with.

For random columns (NULLs included) under each of the four schemes, a
cell re-tagged with any other scheme, a cell sealed under another key,
and a cell whose tag was flipped are each refused by ``decrypt_column``
before a plaintext comes back.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.keys import QueryKey
from repro.core.requirements import EncryptionScheme
from repro.crypto.keymanager import KeyStore
from repro.engine.codec import decrypt_column, encrypt_column
from repro.engine.values import EncryptedValue
from repro.exceptions import CryptoError, ExecutionError

SCHEMES = list(EncryptionScheme)
#: The schemes whose tokens carry a tag (OPE's in its recovery bytes).
TAGGED = [scheme for scheme in SCHEMES
          if scheme is not EncryptionScheme.PAILLIER]


def _store(attribute):
    return KeyStore.generate(
        [QueryKey(frozenset({f"{attribute}{index}"}), scheme)
         for index, scheme in enumerate(SCHEMES)])


#: One key per scheme, and a second set of keys of the same schemes.
MINE, THEIRS = _store("a"), _store("b")

COLUMNS = st.lists(st.one_of(st.none(), st.integers(-10 ** 6, 10 ** 6)),
                   min_size=1, max_size=12)


def _material(store, scheme):
    return next(store.material(name) for name in store.names()
                if store.material(name).scheme is scheme)


def _not_all_null(values):
    """The column, with a cell appended if every cell is NULL."""
    return values if any(v is not None for v in values) else values + [0]


@given(st.sampled_from(SCHEMES), st.sampled_from(SCHEMES), COLUMNS,
       st.data())
@settings(max_examples=40, deadline=None)
def test_cell_tagged_with_another_scheme_is_refused(sealed_under, tagged,
                                                    values, data):
    if tagged is sealed_under:
        tagged = SCHEMES[(SCHEMES.index(tagged) + 1) % len(SCHEMES)]
    material = _material(MINE, sealed_under)
    sealed = list(encrypt_column(material, _not_all_null(values)))
    index = data.draw(st.sampled_from(
        [i for i, cell in enumerate(sealed) if cell is not None]))
    cell = sealed[index]
    sealed[index] = EncryptedValue(cell.key_name, tagged, cell.token,
                                   cell.recovery)
    with pytest.raises(ExecutionError, match=f"tagged {tagged}"):
        decrypt_column(material, sealed)


@given(st.sampled_from(SCHEMES), COLUMNS)
@settings(max_examples=20, deadline=None)
def test_cell_sealed_under_another_key_is_refused(scheme, values):
    mine = _material(MINE, scheme)
    foreign = encrypt_column(_material(THEIRS, scheme), [7])
    column = list(encrypt_column(mine, values)) + list(foreign)
    with pytest.raises(ExecutionError, match="encrypted under"):
        decrypt_column(mine, column)


@given(st.sampled_from(TAGGED), COLUMNS, st.data())
@settings(max_examples=30, deadline=None)
def test_cell_with_a_flipped_tag_byte_is_refused(scheme, values, data):
    material = _material(MINE, scheme)
    sealed = list(encrypt_column(material, _not_all_null(values)))
    index = data.draw(st.sampled_from(
        [i for i, cell in enumerate(sealed) if cell is not None]))
    position = data.draw(st.integers(-12, -1))
    cell = sealed[index]
    ope = scheme is EncryptionScheme.OPE
    tagged = bytearray(cell.recovery if ope else cell.token)
    tagged[position] ^= 0x01
    sealed[index] = EncryptedValue(
        cell.key_name, scheme, cell.token if ope else bytes(tagged),
        bytes(tagged) if ope else None)
    with pytest.raises(CryptoError, match="authentication failed"):
        decrypt_column(material, sealed)
