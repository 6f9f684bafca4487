"""Unit and property tests for the encryption substrate."""

import hashlib
import hmac
from datetime import date

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.keys import QueryKey
from repro.core.requirements import EncryptionScheme
from repro.crypto import primitives
from repro.crypto.keymanager import DistributedKeys, KeyStore
from repro.crypto.ope import OpeCipher, decode_numeric, encode_orderable
from repro.crypto.paillier import generate_keypair
from repro.crypto.symmetric import DeterministicCipher, RandomizedCipher
from repro.exceptions import CryptoError, KeyManagementError

KEY = b"unit-test-key-32-bytes-long!!!!!"

VALUES = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False,
              min_value=-1e6, max_value=1e6),
    st.text(max_size=40),
    st.dates(min_value=date(1900, 1, 1), max_value=date(2100, 1, 1)),
)


class TestEncoding:
    @given(VALUES)
    def test_roundtrip(self, value):
        assert primitives.decode_value(primitives.encode_value(value)) \
            == value

    def test_none_and_bytes(self):
        assert primitives.decode_value(primitives.encode_value(None)) \
            is None
        assert primitives.decode_value(
            primitives.encode_value(b"\x00\x01")) == b"\x00\x01"

    def test_unsupported_type(self):
        with pytest.raises(CryptoError):
            primitives.encode_value(object())


class TestPrf:
    """The PRF copies two pre-keyed SHA-256 states instead of going
    through ``hmac.HMAC``; it must stay HMAC-SHA256 bit for bit."""

    @given(st.binary(min_size=1, max_size=100), st.binary(max_size=200))
    def test_prf_is_hmac_sha256(self, key, message):
        expected = hmac.new(key, message, hashlib.sha256).digest()
        assert primitives.prf(key, message) == expected
        assert primitives.keyed_hmac(key)(message) == expected

    @given(st.binary(min_size=16, max_size=16),
           st.integers(min_value=0, max_value=150))
    def test_keystream_blocks_are_counter_prfs(self, iv, length):
        blocks = b"".join(
            hmac.new(KEY, iv + counter.to_bytes(8, "big"),
                     hashlib.sha256).digest()
            for counter in range(max(1, -(-length // 32))))
        assert primitives.keystream(KEY, iv, length) == blocks[:length]
        assert primitives.keystream_many(KEY, [iv], [length]) \
            == [blocks[:length]]


class TestSymmetric:
    @given(VALUES)
    @settings(max_examples=30)
    def test_deterministic_roundtrip(self, value):
        cipher = DeterministicCipher(KEY)
        assert cipher.decrypt(cipher.encrypt(value)) == value

    @given(VALUES)
    @settings(max_examples=30)
    def test_randomized_roundtrip(self, value):
        cipher = RandomizedCipher(KEY)
        assert cipher.decrypt(cipher.encrypt(value)) == value

    def test_deterministic_equality_preserved(self):
        cipher = DeterministicCipher(KEY)
        assert cipher.encrypt("x") == cipher.encrypt("x")
        assert cipher.encrypt("x") != cipher.encrypt("y")

    def test_randomized_unlinkable(self):
        cipher = RandomizedCipher(KEY)
        assert cipher.encrypt("x") != cipher.encrypt("x")

    def test_wrong_key_fails_loudly(self):
        token = DeterministicCipher(KEY).encrypt("secret")
        other = DeterministicCipher(b"y" * 32)
        with pytest.raises(CryptoError):
            other.decrypt(token)

    def test_tampering_detected(self):
        token = bytearray(RandomizedCipher(KEY).encrypt("secret"))
        token[-1] ^= 0x01
        with pytest.raises(CryptoError):
            RandomizedCipher(KEY).decrypt(bytes(token))

    def test_short_key_rejected(self):
        with pytest.raises(CryptoError):
            DeterministicCipher(b"short")


class TestOpe:
    @given(st.lists(st.integers(min_value=-(2**40), max_value=2**40),
                    min_size=2, max_size=20, unique=True))
    @settings(max_examples=25)
    def test_order_preserved(self, values):
        cipher = OpeCipher(KEY)
        tokens = [cipher.encrypt(v) for v in values]
        assert [t for _, t in sorted(zip(values, tokens))] == \
            sorted(tokens)

    @given(st.integers(min_value=-(2**40), max_value=2**40))
    @settings(max_examples=25)
    def test_roundtrip(self, value):
        cipher = OpeCipher(KEY)
        assert cipher.decrypt_numeric(cipher.encrypt(value)) == value

    def test_numeric_types_interleave_consistently(self):
        cipher = OpeCipher(KEY)
        assert cipher.encrypt(100) == cipher.encrypt(100.0)
        assert cipher.encrypt(10) < cipher.encrypt(10.5) \
            < cipher.encrypt(11)

    def test_dates_and_strings_orderable(self):
        cipher = OpeCipher(KEY)
        assert cipher.encrypt(date(1994, 1, 1)) \
            < cipher.encrypt(date(1995, 1, 1))
        assert cipher.encrypt("apple") < cipher.encrypt("banana")

    def test_forged_ciphertext_rejected(self):
        cipher = OpeCipher(KEY)
        token = cipher.encrypt(42)
        with pytest.raises(CryptoError):
            cipher.decrypt(token + 1)

    def test_out_of_domain_rejected(self):
        with pytest.raises(CryptoError):
            OpeCipher(KEY).encrypt(2 ** 60)

    def test_decode_numeric(self):
        assert decode_numeric(encode_orderable(7)) == 7
        assert decode_numeric(encode_orderable(7.25)) == 7.25


class TestPaillier:
    @pytest.fixture(scope="class")
    def keys(self):
        return generate_keypair(512)

    def test_roundtrip_and_negatives(self, keys):
        public, private = keys
        for value in (0, 42, -42, 3.14, -0.5):
            assert private.decrypt(public.encrypt(value)) \
                == pytest.approx(value)

    def test_homomorphic_addition(self, keys):
        public, private = keys
        total = public.encrypt(10) + public.encrypt(32)
        assert private.decrypt(total) == 42

    def test_add_plain_and_multiply(self, keys):
        public, private = keys
        c = public.encrypt(10).add_plain(5)
        assert private.decrypt(c) == 15
        assert private.decrypt(public.encrypt(10).multiply_plain(4)) == 40

    def test_randomized_ciphertexts(self, keys):
        public, _ = keys
        assert public.encrypt(1).value != public.encrypt(1).value

    def test_cross_key_addition_rejected(self, keys):
        public, _ = keys
        other_public, _ = generate_keypair(512)
        with pytest.raises(CryptoError):
            _ = public.encrypt(1) + other_public.encrypt(1)

    def test_out_of_range_rejected(self, keys):
        public, _ = keys
        with pytest.raises(CryptoError):
            public.encrypt(2 ** 600)


class TestKeyManager:
    def make_store(self):
        return KeyStore.generate([
            QueryKey(frozenset({"S", "C"}),
                     EncryptionScheme.DETERMINISTIC),
            QueryKey(frozenset({"P"}), EncryptionScheme.PAILLIER),
            QueryKey(frozenset({"D"}), EncryptionScheme.OPE),
        ])

    def test_cipher_routing(self):
        store = self.make_store()
        assert isinstance(store.cipher_for_attribute("S"),
                          DeterministicCipher)
        assert isinstance(store.cipher_for_attribute("D"), OpeCipher)
        with pytest.raises(KeyManagementError):
            store.cipher_for_attribute("P")  # Paillier needs material

    def test_shared_key_for_cluster(self):
        store = self.make_store()
        assert store.material_for_attribute("S") is \
            store.material_for_attribute("C")

    def test_missing_attribute(self):
        store = self.make_store()
        assert not store.has_attribute("Z")
        with pytest.raises(KeyManagementError):
            store.material_for_attribute("Z")

    def test_subset_distribution(self):
        store = self.make_store()
        subset = store.subset(["kCS"])
        assert subset.has_attribute("S")
        assert not subset.has_attribute("P")

    def test_distributed_keys(self):
        from repro.core.keys import KeyAssignment

        keys = [QueryKey(frozenset({"P"}), EncryptionScheme.PAILLIER)]
        assignment = KeyAssignment(
            keys=tuple(keys),
            distribution={"I": frozenset(keys), "Y": frozenset(keys)},
        )
        distributed = DistributedKeys.from_assignment(assignment)
        assert distributed.store_for("I").has_attribute("P")
        assert not distributed.store_for("X").has_attribute("P")

    def test_duplicate_key_rejected(self):
        store = self.make_store()
        with pytest.raises(KeyManagementError):
            store.add(store.material("kCS"))
