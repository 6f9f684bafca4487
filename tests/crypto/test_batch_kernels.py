"""Property tests pinning the batch-crypto kernels to their references.

The fast paths (bulk ``encrypt_many``/``decrypt_many``, the memoized
deterministic/OPE ciphers, binomial + CRT Paillier, the columnar engine
codec over ``KeyMaterial.seal``/``open``) must be *bit-identical* to the
straightforward per-value formulations — these tests hold them to that,
including error behavior (tampered ciphertexts raise through the bulk
paths too).
"""

from datetime import date, datetime
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.keys import QueryKey
from repro.core.requirements import EncryptionScheme
from repro.crypto import primitives
from repro.crypto.keymanager import KeyMaterial, KeyStore
from repro.crypto.ope import OpeCipher
from repro.crypto.paillier import (
    PaillierCiphertext,
    _encode,
    generate_keypair,
)
from repro.crypto.symmetric import DeterministicCipher, RandomizedCipher
from repro.engine.codec import decrypt_column, encrypt_column
from repro.engine.values import EncryptedValue
from repro.exceptions import CryptoError, ExecutionError

from oracles.paillier_reference import decrypt_reference, encrypt_reference

KEY = b"unit-test-key-32-bytes-long!!!!!"
OTHER_KEY = b"other-test-key-32-bytes-long!!!!"
LONG = "a carefully unhurried forty-byte comment"

VALUES = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-1e6, max_value=1e6),
    st.text(max_size=40),
    st.dates(min_value=date(1900, 1, 1), max_value=date(2100, 1, 1)),
)

#: Numbers Paillier can carry: fixed-point fractions and negatives.
NUMBERS = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-1e6, max_value=1e6),
)

KEYS = st.binary(min_size=16, max_size=32)


@pytest.fixture(scope="module")
def paillier():
    return generate_keypair(512)


class TestBulkEqualsLoop:
    """``encrypt_many``/``decrypt_many`` ≡ the per-value loop."""

    @given(st.lists(VALUES, max_size=20))
    @settings(max_examples=25)
    def test_deterministic(self, values):
        cipher = DeterministicCipher(KEY)
        tokens = cipher.encrypt_many(values)
        assert tokens == [DeterministicCipher(KEY).encrypt(v)
                          for v in values]
        assert cipher.decrypt_many(tokens) == values
        assert [DeterministicCipher(KEY).decrypt(t) for t in tokens] \
            == values

    @given(st.lists(VALUES, max_size=20))
    @settings(max_examples=25)
    def test_randomized(self, values):
        cipher = RandomizedCipher(KEY)
        tokens = cipher.encrypt_many(values)
        # Randomized IVs differ per call; the roundtrip is the contract.
        assert cipher.decrypt_many(tokens) == values
        assert [RandomizedCipher(KEY).decrypt(t) for t in tokens] == values
        assert len(set(cipher.encrypt_many([1, 1, 1]))) == 3

    @given(st.lists(st.integers(min_value=-(2**40), max_value=2**40),
                    max_size=20))
    @settings(max_examples=25)
    def test_ope(self, values):
        cipher = OpeCipher(KEY)
        tokens = cipher.encrypt_many(values)
        assert tokens == [OpeCipher(KEY).encrypt(v) for v in values]
        assert cipher.decrypt_many(tokens) == \
            [OpeCipher(KEY).decrypt(t) for t in tokens]

    @given(st.lists(NUMBERS, max_size=8))
    @settings(max_examples=10, deadline=None)
    def test_paillier(self, paillier, values):
        public, private = paillier
        ciphertexts = public.encrypt_values(values)
        decrypted = private.decrypt_values(ciphertexts)
        assert decrypted == [private.decrypt(PaillierCiphertext(public, c))
                             for c in ciphertexts]
        for value, got in zip(values, decrypted):
            assert got == pytest.approx(value, abs=1e-5)


class TestPaillierFastVsReference:
    @given(NUMBERS)
    @settings(max_examples=25, deadline=None)
    def test_binomial_equals_pow_reference(self, paillier, value):
        public, _ = paillier
        obfuscator = public._obfuscators(1)[0]
        fast = public.encrypt(value, obfuscator=obfuscator)
        reference = encrypt_reference(public, value, obfuscator=obfuscator)
        assert fast.value == reference.value

    @given(NUMBERS)
    @settings(max_examples=25, deadline=None)
    def test_crt_decrypt_equals_reference(self, paillier, value):
        public, private = paillier
        ciphertext = public.encrypt(value)
        assert private.decrypt(ciphertext) == \
            decrypt_reference(private, ciphertext)

    def test_crt_decrypt_on_negatives_and_fractions(self, paillier):
        public, private = paillier
        for value in (0, 42, -42, 3.141593, -0.5, -123456.789012, 2**40):
            ciphertext = public.encrypt(value)
            fast = private.decrypt(ciphertext)
            assert fast == decrypt_reference(private, ciphertext)
            assert fast == pytest.approx(value, abs=1e-6)

    def test_key_holds_the_textbook_lambda_and_mu(self, paillier):
        public, private = paillier
        ciphertext = public.encrypt(-7.25)
        assert decrypt_reference(private, ciphertext) == \
            private.decrypt(ciphertext) == -7.25
        assert private.lam == lcm(private.p - 1, private.q - 1)
        assert private.mu == pow(private.lam, -1, public.n)

    def test_obfuscators_are_units(self, paillier):
        public, private = paillier
        n2 = public.n_squared
        drawn = public._obfuscators(300)
        for obfuscator in drawn:
            assert 0 < obfuscator < n2
            assert gcd(obfuscator, n2) == 1
            # An n-th residue: as a ciphertext it encrypts 0, so it
            # masks a message without shifting it.
            assert private.decrypt(
                PaillierCiphertext(public, obfuscator)) == 0
        assert len(set(drawn)) == 300  # fresh randomness per value

    def test_concurrent_draws_are_independent_units(self):
        # Public keys are shared across subject keystores and concurrent
        # runs encrypt under one key: racing first draws may each build
        # a fixed-base table, and every draw is still a fresh unit.
        from concurrent.futures import ThreadPoolExecutor

        public, private = generate_keypair(256)

        def draw_many(_):
            return [public.encrypt(7) for _ in range(10)]

        with ThreadPoolExecutor(max_workers=4) as executor:
            batches = list(executor.map(draw_many, range(4)))
        drawn = [c for batch in batches for c in batch]
        assert len({c.value for c in drawn}) == 40
        assert {private.decrypt(c) for c in drawn} == {7}

    def test_no_linear_relation_between_ciphertexts(self):
        """Obfuscators must not derive from one another.  If each were
        the one four draws earlier times a fixed product, any nine
        consecutive encryptions would satisfy ``c0·c8·c4⁻² ≡ 1 +
        n·(e0 + e8 − 2·e4) (mod n²)``, a relation between the encoded
        plaintexts ``e`` that anyone holding ``n`` can read.  No window
        may satisfy it, through ``encrypt`` or through the column
        seal."""
        public, private = generate_keypair(512)
        material = KeyMaterial(
            QueryKey(frozenset({"P"}), EncryptionScheme.PAILLIER),
            paillier_public=public, paillier_private=private)
        values = [3, 141, -59, 26, 5.35, 89, 7, 932, 384, 62, 643]
        n, n2 = public.n, public.n_squared
        encoded = [_encode(v, n) for v in values]
        for ciphertexts in (
                [public.encrypt(v).value for v in values],
                [cell.token.value
                 for cell in encrypt_column(material, values)]):
            related = [
                start for start in range(len(values) - 8)
                if ciphertexts[start] * ciphertexts[start + 8]
                * pow(ciphertexts[start + 4], -2, n2) % n2
                == (1 + n * (encoded[start] + encoded[start + 8]
                             - 2 * encoded[start + 4])) % n2]
            assert related == []

    def test_random_unit_is_coprime(self, paillier):
        public, _ = paillier
        for _ in range(20):
            r = public._random_unit()
            assert 1 < r < public.n
            assert gcd(r, public.n) == 1

    def test_sum_builtin_folds_homomorphically(self, paillier):
        public, private = paillier
        values = [3, -5, 7.5, 100]
        total = sum(public.encrypt(v) for v in values)
        assert private.decrypt(total) == pytest.approx(sum(values))
        single = public.encrypt(9)
        assert private.decrypt(sum([single])) == 9
        assert (0 + single).value == single.value
        with pytest.raises(TypeError):
            _ = 1 + single  # only the identity folds


class TestWireFormatKnownAnswers:
    """Fixed key, fixed inputs, fixed tokens: the wire format has not moved.

    Stored ciphertexts and tokens held by other parties outlive a code
    change, so the subkey labels (``enc`` / ``mac`` / ``siv`` / ``ope`` /
    ``recovery``), the value encoding and the token layout are pinned by
    literals (taken from this repository's ciphers, which agreed with
    the seed's per-call implementations when that copy was retired).
    """

    def test_deterministic_tokens(self):
        cipher = DeterministicCipher(KEY)
        for value, token in [
            ("stroke", "27eb89215858bf41c99b1eaf432a842fb6c4a2c78437bae9"
                       "b7fcd5f6b2cf1b7953a114"),
            (-42, "929cf6f1fce41871f3dbeecc44f0047fcb39d15aa434be606456"
                  "3dd897ce83042aeae4de59"),
            (date(1995, 3, 15), "db3271bf9927efebc6ad82eca6b3038c9ec8fcfc"
                                "1a2bd5ec212733783b61836d599580b908"),
            # 41 encoded bytes: a keystream of two blocks.
            (LONG, "631a5823e4b64a9b55a75dda201b38df8e1eb10b4d655486d7974cef"
                   "339469231a28a828eeaaf553646b94f1bffa1e8a9c392f0df5d5dbbc"
                   "b0a44e6b384426afc43a4bd208"),
        ]:
            assert cipher.encrypt(value).hex() == token
            assert cipher.decrypt(bytes.fromhex(token)) == value

    def test_randomized_tokens(self, monkeypatch):
        """IVs are the one random input: with the draw fixed, the bulk
        seal's tokens are pinned like the deterministic ones."""
        monkeypatch.setattr(primitives, "random_bytes",
                            lambda length: bytes(i % 256
                                                 for i in range(length)))
        values = ["stroke", -42, date(1995, 3, 15), LONG]
        tokens = [
            "000102030405060708090a0b0c0d0e0fe2591cace1aa95657bccc38baebf83"
            "991f35f0",
            "101112131415161718191a1b1c1d1e1f9cee894a946448c13c3d561df9a238"
            "216532fa1fb4",
            "202122232425262728292a2b2c2d2e2faa9e1165efcb350a6872368995179683"
            "b9a7488b1c",
            "303132333435363738393a3b3c3d3e3fb72356cfe2752fe501c9561f3bec9921"
            "1af1e7b3a17c9a915a73975362146c6bf8cb8b780feaaf4887bf5b50ce1803a0"
            "fca9b36ab8",
        ]
        cipher = RandomizedCipher(KEY)
        assert [t.hex() for t in cipher.encrypt_many(values)] == tokens
        assert cipher.decrypt_many(map(bytes.fromhex, tokens)) == values

    def test_ope_and_recovery_tokens(self):
        material = KeyMaterial(
            QueryKey(frozenset({"D"}), EncryptionScheme.OPE), symmetric=KEY)
        for value, token, recovery in [
            (0, 0x74e49c6ad847db0e,
             "000102030405060708090a0b0c0d0e0f8cbcd1ba3432db12a1be5faf"
             "495b7122af2a2d60a6"),
            (-42, 0x74e49c6ad745a9cd,
             "000102030405060708090a0b0c0d0e0f8c432e45cbcd24ed77197f55"
             "ad9d1eebcdd6a0d485"),
            (100.5, 0x74e49c6b52b248e1,
             "000102030405060708090a0b0c0d0e0f83fc889a3432db12a1c94980"
             "91dc11a96b2b87330a"),
        ]:
            assert OpeCipher(KEY).encrypt(value) == token
            assert encrypt_column(material, [value])[0].token == token
            # The recovery ciphertext is randomized: a token sealed
            # earlier (IV 00..0f) must still open under the derived key.
            cell = EncryptedValue(material.name, EncryptionScheme.OPE,
                                  token, bytes.fromhex(recovery))
            assert decrypt_column(material, [cell]) == [value]


class TestMemoizedEqualsUnmemoized:
    """Warm memos change nothing observable, across distinct keys."""

    @given(KEYS, st.lists(VALUES, min_size=1, max_size=10))
    @settings(max_examples=25)
    def test_deterministic_across_keys(self, key, values):
        warm = DeterministicCipher(key)
        repeated = values * 3  # exercise the memo hit path
        warm_tokens = warm.encrypt_many(repeated)
        cold_tokens = [DeterministicCipher(key).encrypt(v)
                       for v in repeated]
        assert warm_tokens == cold_tokens
        assert warm.decrypt_many(warm_tokens) == repeated

    @given(KEYS, st.lists(st.integers(min_value=-(2**30), max_value=2**30),
                          min_size=1, max_size=8))
    @settings(max_examples=15, deadline=None)
    def test_ope_across_keys(self, key, values):
        warm = OpeCipher(key)
        repeated = values * 3
        warm_tokens = warm.encrypt_many(repeated)
        assert warm_tokens == [OpeCipher(key).encrypt(v) for v in repeated]
        assert warm.decrypt_many(warm_tokens) == \
            [OpeCipher(key).decrypt(t) for t in warm_tokens]

    def test_distinct_keys_stay_distinct(self):
        # Memos are per-cipher: the same plaintext under two keys must
        # not share tokens even after both memos are warm.
        det_a, det_b = DeterministicCipher(KEY), DeterministicCipher(OTHER_KEY)
        for _ in range(2):
            assert det_a.encrypt("stroke") != det_b.encrypt("stroke")
        ope_a, ope_b = OpeCipher(KEY), OpeCipher(OTHER_KEY)
        for _ in range(2):
            assert ope_a.encrypt(42) != ope_b.encrypt(42)
        assert det_a.decrypt(det_a.encrypt("stroke")) == "stroke"
        with pytest.raises(CryptoError):
            det_b.decrypt(det_a.encrypt("stroke"))


class TestTamperingThroughBatchPath:
    def test_symmetric_tamper_raises_in_bulk(self):
        for cipher_type in (DeterministicCipher, RandomizedCipher):
            cipher = cipher_type(KEY)
            tokens = cipher.encrypt_many(["a", "b", "c"])
            tampered = bytearray(tokens[1])
            tampered[-1] ^= 0x01
            with pytest.raises(CryptoError):
                cipher.decrypt_many([tokens[0], bytes(tampered), tokens[2]])

    def test_memoized_decrypt_still_rejects_tampering(self):
        cipher = DeterministicCipher(KEY)
        token = cipher.encrypt("secret")
        assert cipher.decrypt(token) == "secret"  # memo is now warm
        tampered = bytearray(token)
        tampered[_IV_BYTE] ^= 0x01
        with pytest.raises(CryptoError):
            cipher.decrypt(bytes(tampered))

    def test_ope_forged_token_raises_in_bulk(self):
        cipher = OpeCipher(KEY)
        tokens = cipher.encrypt_many([1, 2, 3])
        with pytest.raises(CryptoError):
            cipher.decrypt_many([tokens[0], tokens[1] + 1])
        # ...even after the canonical token passed through the memo.
        cipher.decrypt_many(tokens)
        with pytest.raises(CryptoError):
            cipher.decrypt_many([tokens[1] + 1])

    def test_wrong_paillier_key_raises_in_bulk(self, paillier):
        public, _ = paillier
        other_public, other_private = generate_keypair(512)
        assert other_public.n != public.n
        key = QueryKey(frozenset({"P"}), EncryptionScheme.PAILLIER)
        cell = EncryptedValue(key.name, EncryptionScheme.PAILLIER,
                              public.encrypt(1))
        other = KeyMaterial(key, paillier_public=other_public,
                            paillier_private=other_private)
        with pytest.raises(CryptoError):
            decrypt_column(other, [cell])


_IV_BYTE = 3  # flip inside the IV: the SIV no longer matches the body


class TestColumnCodec:
    """Engine-level ``encrypt_column``/``decrypt_column`` ≡ one cell at a
    time, and ≡ the ciphers' per-value APIs."""

    @pytest.fixture(scope="class")
    def store(self):
        return KeyStore.generate([
            QueryKey(frozenset({"S"}), EncryptionScheme.DETERMINISTIC),
            QueryKey(frozenset({"R"}), EncryptionScheme.RANDOMIZED),
            QueryKey(frozenset({"D"}), EncryptionScheme.OPE),
            QueryKey(frozenset({"P"}), EncryptionScheme.PAILLIER),
        ])

    @pytest.mark.parametrize("attribute,values", [
        ("S", ["x", None, "y", "x", 7]),
        ("R", [1.5, None, "mixed", date(2001, 2, 3)]),
        ("D", [10, None, -3, 10]),
        ("P", [1, None, -2.5, 1000.125]),
    ])
    def test_column_roundtrip_with_nulls(self, store, attribute, values):
        material = store.material_for_attribute(attribute)
        column = encrypt_column(material, values)
        for plain, cell in zip(values, column):
            if plain is None:
                assert cell is None
            else:
                assert cell.key_name == material.name
                assert cell.scheme is material.scheme
                recovered = decrypt_column(material, [cell])[0]
                if isinstance(plain, float):
                    assert recovered == pytest.approx(plain, abs=1e-6)
                else:
                    assert recovered == plain
        assert decrypt_column(material, column) == \
            [None if c is None else decrypt_column(material, [c])[0]
             for c in column]

    #: (column, whether equal cells share one token).  Exact kinds seal
    #: each distinct value once; any other column is sealed cell by cell.
    DETERMINISTIC_COLUMNS = [
        (["a", "b", "a", None, 7, "a", None, 7, b"a", date(2001, 2, 3),
          date(2001, 2, 3)], True),
        ([1, 1.0, True], False),
        ([0.0, -0.0], False),
        ([date(2001, 2, 3), datetime(2001, 2, 3, 4, 5)], False),
    ]

    def test_column_equals_per_cell_for_deterministic(self, store):
        material = store.material_for_attribute("S")
        cipher = DeterministicCipher(material.symmetric)
        for values, shared in self.DETERMINISTIC_COLUMNS:
            column = encrypt_column(material, values)
            tokens = [None if plain is None else cipher.encrypt(plain)
                      for plain in values]
            assert [None if cell is None else cell.token
                    for cell in column] == tokens
            for index, plain in enumerate(values):
                for other, token in zip(values[index + 1:],
                                        column.tokens[index + 1:]):
                    if plain is not None and plain == other \
                            and type(plain) is type(other):
                        assert (token is column.tokens[index]) is shared
        one, one_float, true = (encrypt_column(material, [v])[0].token
                                for v in (1, 1.0, True))
        assert one == true != one_float
        assert encrypt_column(material, [0.0])[0].token \
            != encrypt_column(material, [-0.0])[0].token
        with pytest.raises(CryptoError, match="out of encodable range"):
            encrypt_column(material, [2**63])

    def test_already_encrypted_rejected(self, store):
        material = store.material_for_attribute("S")
        cell = encrypt_column(material, ["a"])[0]
        with pytest.raises(ExecutionError):
            encrypt_column(material, ["b", cell])

    def test_foreign_key_ciphertext_rejected(self, store):
        det = store.material_for_attribute("S")
        ope = store.material_for_attribute("D")
        cell = encrypt_column(ope, [5])[0]
        with pytest.raises(ExecutionError):
            decrypt_column(det, [cell])

    def test_mistagged_cell_is_refused(self):
        """A cell sealed under a RANDOMIZED key but tagged DETERMINISTIC
        is refused by its tag, not by its MAC: both schemes derive the
        same subkeys from one key, so the MAC alone would let it open."""
        material = KeyMaterial(
            QueryKey(frozenset({"R"}), EncryptionScheme.RANDOMIZED),
            symmetric=KEY)
        sealed = encrypt_column(material, ["secret"])[0]
        forged = EncryptedValue(sealed.key_name,
                                EncryptionScheme.DETERMINISTIC, sealed.token)
        assert decrypt_column(material, [sealed]) == ["secret"]
        with pytest.raises(ExecutionError, match="tagged deterministic"):
            decrypt_column(material, [forged])

    def test_plaintext_cell_rejected_on_decrypt(self, store):
        material = store.material_for_attribute("S")
        with pytest.raises(ExecutionError):
            decrypt_column(material, ["plaintext"])

    def test_tampered_cell_raises_through_column(self, store):
        material = store.material_for_attribute("S")
        cell = encrypt_column(material, ["secret"])[0]
        tampered = bytearray(cell.token)
        tampered[-1] ^= 0x01
        forged = EncryptedValue(cell.key_name, cell.scheme, bytes(tampered))
        with pytest.raises(CryptoError):
            decrypt_column(material, [forged])

    def test_paillier_rejects_non_numeric_in_bulk(self, store):
        material = store.material_for_attribute("P")
        with pytest.raises(ExecutionError):
            encrypt_column(material, [1, "two"])
