"""Unit and property tests for the encryption substrate."""

import hashlib
import hmac
from datetime import date, datetime

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.keys import QueryKey
from repro.core.requirements import EncryptionScheme
from repro.crypto import keymanager, primitives
from repro.crypto.keymanager import DistributedKeys, KeyMaterial, KeyStore
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


class _Text(str):
    """A ``str`` subclass: no exact-type encoder, so the chain's."""


class TestEncodeMany:
    """A seal encodes through a table keyed by each value's exact type;
    it must hand out ``encode_value``'s bytes for every supported type,
    subclasses, ``bool``, ``-0.0``, extreme ints and NULL included."""

    @given(st.lists(st.one_of(
        VALUES, st.none(), st.booleans(), st.binary(max_size=40),
        st.integers(-(2**63), 2**63 - 1), st.just(-0.0),
        st.floats(allow_nan=False), st.builds(_Text, st.text(max_size=8)),
        st.datetimes(min_value=datetime(1900, 1, 1)),
    ), max_size=8))
    @settings(max_examples=80)
    def test_encode_many_is_encode_value(self, values):
        assert primitives.encode_many(values) \
            == [primitives.encode_value(value) for value in values]

    @pytest.mark.parametrize("out_of_range", [2**63, -(2**63) - 1])
    def test_an_out_of_range_int_still_raises(self, out_of_range):
        with pytest.raises(CryptoError, match="out of encodable range"):
            primitives.encode_many([1, "a", out_of_range])
        for cipher in (DeterministicCipher(KEY), RandomizedCipher(KEY)):
            with pytest.raises(CryptoError, match="out of encodable range"):
                cipher.encrypt_many([1, out_of_range])

    def test_an_unsupported_type_still_raises(self):
        with pytest.raises(CryptoError, match="unsupported value type"):
            primitives.encode_many([1, object()])


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
        """``seal`` picks the key's scheme and hands out raw tokens;
        ``open`` inverts it."""
        store = self.make_store()
        det = store.material_for_attribute("S")
        assert det.seal(["x", 7]) == \
            DeterministicCipher(det.symmetric).encrypt_many(["x", 7])
        ope = store.material_for_attribute("D")
        pairs = ope.seal([5, -3])
        assert [token for token, _ in pairs] == \
            OpeCipher(ope.symmetric).encrypt_many([5, -3])
        assert ope.open([recovery for _, recovery in pairs]) == [5, -3]
        paillier = store.material_for_attribute("P")
        raw = paillier.seal([4, -2.5])
        assert all(isinstance(value, int) for value in raw)
        assert paillier.open(raw) == [4, -2.5]
        assert det.open(det.seal(["x", 7])) == ["x", 7]

    def test_shared_key_for_cluster(self):
        store = self.make_store()
        assert store.material_for_attribute("S") is \
            store.material_for_attribute("C")

    def test_missing_attribute(self):
        store = self.make_store()
        with pytest.raises(KeyManagementError):
            store.material_for_attribute("Z")

    def test_subset_distribution(self):
        store = self.make_store()
        subset = store.subset(["kCS", "kZ"])
        assert subset.names() == {"kCS"}
        # The material is shared, not copied.
        assert subset.material_for_attribute("S") is store.material("kCS")
        with pytest.raises(KeyManagementError):
            subset.material_for_attribute("P")

    def test_distributed_keys(self):
        from repro.core.keys import KeyAssignment

        keys = [QueryKey(frozenset({"P"}), EncryptionScheme.PAILLIER)]
        assignment = KeyAssignment(
            keys=tuple(keys),
            distribution={"I": frozenset(keys), "Y": frozenset(keys)},
        )
        distributed = DistributedKeys.from_assignment(assignment)
        assert "kP" in distributed.store_for("I")
        assert "kP" not in distributed.store_for("X")

    def test_one_store_per_subject_per_key_set(self):
        """What is kept per store (the bodies a sender framed around it)
        is kept per (key set, subject): a keyless subject's empty store
        is made once, and two key sets share no store."""
        from repro.core.keys import KeyAssignment

        keys = [QueryKey(frozenset({"P"}), EncryptionScheme.PAILLIER)]
        assignment = KeyAssignment(keys=tuple(keys),
                                   distribution={"I": frozenset(keys)})
        first, second = (DistributedKeys.from_assignment(assignment)
                         for _ in range(2))
        for subject in ("I", "X"):
            assert first.store_for(subject) is first.store_for(subject)
            assert first.store_for(subject) is not second.store_for(subject)
        assert len(first.store_for("X")) == 0
        assert first.store_for("X") is not first.store_for("Y")

    def test_adding_a_key_forgets_the_bodies_framed_around_the_store(self):
        store = self.make_store()
        store.bodies.store("framed", b"body")
        store.add(KeyMaterial(
            QueryKey(frozenset({"Q"}), EncryptionScheme.DETERMINISTIC),
            symmetric=bytes(32)))
        assert not store.bodies

    def test_duplicate_key_rejected(self):
        store = self.make_store()
        with pytest.raises(KeyManagementError):
            store.add(store.material("kCS"))

    def test_paillier_keys_sharing_a_modulus_are_refused(self, monkeypatch):
        """A store whose keypair source repeats a modulus (an undersized
        key pool) refuses it rather than seal two keys' columns under
        one Paillier key."""
        keypair = generate_keypair(256)
        monkeypatch.setattr(keymanager, "generate_keypair",
                            lambda: keypair)
        with pytest.raises(KeyManagementError, match="kQ shares a modulus"):
            KeyStore.generate([
                QueryKey(frozenset({"P"}), EncryptionScheme.PAILLIER),
                QueryKey(frozenset({"Q"}), EncryptionScheme.PAILLIER)])
        store = KeyStore.generate(
            [QueryKey(frozenset({"P"}), EncryptionScheme.PAILLIER)])
        assert store.material("kP").paillier_public is keypair[0]
