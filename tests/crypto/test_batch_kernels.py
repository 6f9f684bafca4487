"""Property tests pinning the batch-crypto kernels to their references.

The fast paths (bulk ``encrypt_many``/``decrypt_many``, the memoized
deterministic/OPE ciphers, binomial + CRT Paillier, the columnar engine
codec) must be *bit-identical* to the straightforward per-value
formulations — these tests hold them to that, including error behavior
(tampered ciphertexts raise through the bulk paths too).
"""

from datetime import date
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.keys import QueryKey
from repro.core.requirements import EncryptionScheme
from repro.crypto.keymanager import KeyMaterial, KeyStore
from repro.crypto.ope import OpeCipher
from repro.crypto.paillier import generate_keypair
from repro.crypto.symmetric import DeterministicCipher, RandomizedCipher
from repro.engine.codec import (
    decrypt_column,
    decrypt_value,
    encrypt_column,
    encrypt_value,
)
from repro.engine.values import EncryptedValue
from repro.exceptions import CryptoError, ExecutionError

from oracles.paillier_reference import decrypt_reference, encrypt_reference

KEY = b"unit-test-key-32-bytes-long!!!!!"
OTHER_KEY = b"other-test-key-32-bytes-long!!!!"

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
        ciphertexts = public.encrypt_many(values)
        decrypted = private.decrypt_many(ciphertexts)
        assert decrypted == [private.decrypt(c) for c in ciphertexts]
        for value, got in zip(values, decrypted):
            assert got == pytest.approx(value, abs=1e-5)


class TestPaillierFastVsReference:
    @given(NUMBERS)
    @settings(max_examples=25, deadline=None)
    def test_binomial_equals_pow_reference(self, paillier, value):
        public, _ = paillier
        obfuscator = public._next_obfuscator()
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

    def test_reference_keypair_without_primes_still_decrypts(self, paillier):
        from repro.crypto.paillier import PaillierPrivateKey

        public, private = paillier
        stripped = PaillierPrivateKey(public, private.lam, private.mu)
        ciphertext = public.encrypt(-7.25)
        assert stripped.decrypt(ciphertext) == private.decrypt(ciphertext)

    def test_obfuscators_are_units(self, paillier):
        public, _ = paillier
        n2 = public.n_squared
        seen = set()
        for _ in range(300):  # spans multiple pool refills
            obfuscator = public._next_obfuscator()
            assert 0 < obfuscator < n2
            assert gcd(obfuscator, n2) == 1
            seen.add(obfuscator)
        assert len(seen) > 250  # fresh randomness, not a constant pool

    def test_precompute_beyond_one_refill_terminates(self, paillier):
        from repro.crypto.paillier import _POOL_TARGET

        public, _ = paillier
        public.precompute_obfuscators(_POOL_TARGET + 50)
        assert len(public._pool) >= _POOL_TARGET + 50

    def test_concurrent_draws_never_underflow(self, paillier):
        # Public keys are shared across subject keystores and the
        # parallel runtime encrypts on a thread pool: check-then-pop
        # must be atomic.
        from concurrent.futures import ThreadPoolExecutor

        public, _ = paillier
        public._pool.clear()

        def draw_many(_):
            return [public._next_obfuscator() for _ in range(40)]

        with ThreadPoolExecutor(max_workers=8) as executor:
            batches = list(executor.map(draw_many, range(8)))
        drawn = [o for batch in batches for o in batch]
        assert len(drawn) == 320

    def test_random_unit_is_coprime(self, paillier):
        public, _ = paillier
        for _ in range(20):
            r = public._random_unit()
            assert 1 < r < public.n
            assert gcd(r, public.n) == 1

    def test_sum_builtin_folds_homomorphically(self, paillier):
        public, private = paillier
        values = [3, -5, 7.5, 100]
        total = sum(public.encrypt_many(values))
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
        ]:
            assert cipher.encrypt(value).hex() == token
            assert cipher.decrypt(bytes.fromhex(token)) == value

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
            assert encrypt_value(material, value).token == token
            # The recovery ciphertext is randomized: a token sealed
            # earlier (IV 00..0f) must still open under the derived key.
            cell = EncryptedValue(material.name, EncryptionScheme.OPE,
                                  token, bytes.fromhex(recovery))
            assert decrypt_value(material, cell) == value


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
        with pytest.raises(CryptoError):
            other_private.decrypt_many([public.encrypt(1)])


_IV_BYTE = 3  # flip inside the IV: the SIV no longer matches the body


class TestColumnCodec:
    """Engine-level ``encrypt_column``/``decrypt_column`` ≡ per-cell codec."""

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
                recovered = decrypt_value(material, cell)
                if isinstance(plain, float):
                    assert recovered == pytest.approx(plain, abs=1e-6)
                else:
                    assert recovered == plain
        assert decrypt_column(material, column) == \
            [None if c is None else decrypt_value(material, c)
             for c in column]

    def test_column_equals_per_cell_for_deterministic(self, store):
        material = store.material_for_attribute("S")
        values = ["a", "b", "a", None]
        column = encrypt_column(material, values)
        for plain, cell in zip(values, column):
            if plain is not None:
                assert cell.token == encrypt_value(material, plain).token

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
