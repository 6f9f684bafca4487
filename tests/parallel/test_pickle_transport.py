"""Pickle round-trips for everything the worker transport ships.

Spawn-context workers receive their task (``KeyMaterial.seal`` or
``open``), key material and raw tokens pickled; these tests pin (a) that
the round-trip preserves cryptographic behaviour exactly, and (b) that
lazily built runtime state — cipher memos, the Paillier fixed-base
table — stays home rather than bloating every chunk submission."""

import pickle

import pytest

from repro.core.keys import QueryKey
from repro.core.requirements import EncryptionScheme
from repro.crypto import primitives
from repro.crypto.keymanager import KeyMaterial
from repro.crypto.ope import OpeCipher
from repro.crypto.paillier import PaillierCiphertext, generate_keypair
from repro.crypto.symmetric import DeterministicCipher, RandomizedCipher
from repro.exceptions import CryptoError


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL))


class TestKeyMaterialTransport:
    @pytest.mark.parametrize("scheme", [
        EncryptionScheme.DETERMINISTIC,
        EncryptionScheme.RANDOMIZED,
        EncryptionScheme.OPE,
    ], ids=lambda scheme: scheme.value)
    def test_symmetric_material_roundtrip(self, scheme):
        material = KeyMaterial(
            query_key=QueryKey(frozenset({"A"}), scheme),
            symmetric=primitives.generate_key())
        # Populate the lazy cipher cache before pickling: the memoized
        # instances must not travel.
        material.deterministic_cipher().encrypt("seed the memo")
        material.ope_cipher().encrypt(41)
        restored = roundtrip(material)
        assert "_ciphers" not in restored.__dict__
        assert restored.symmetric == material.symmetric
        assert restored.query_key == material.query_key
        # Behavioural equality: tokens produced on either side decrypt
        # on the other.
        token = material.deterministic_cipher().encrypt("hello")
        assert restored.deterministic_cipher().decrypt(token) == "hello"
        assert restored.deterministic_cipher().encrypt("hello") == token
        ope_token = material.ope_cipher().encrypt(17)
        assert restored.ope_cipher().encrypt(17) == ope_token

    def test_paillier_material_roundtrip(self):
        public, private = generate_keypair(256)
        material = KeyMaterial(
            query_key=QueryKey(frozenset({"P"}), EncryptionScheme.PAILLIER),
            paillier_public=public, paillier_private=private)
        restored = roundtrip(material)
        ciphertext = restored.paillier_public.encrypt(123)
        assert private.decrypt(ciphertext) == 123
        assert restored.paillier_private.decrypt(public.encrypt(9)) == 9


class TestPaillierTransport:
    def test_public_key_state_is_just_the_modulus(self):
        public, private = generate_keypair(256)
        public.encrypt(1)  # builds the fixed-base table
        state = public.__getstate__()
        assert set(state) == {"n"}
        restored = roundtrip(public)
        assert restored.n == public.n
        assert private.decrypt(restored.encrypt(5)) == 5

    def test_ciphertext_roundtrip_keeps_homomorphism(self):
        public, private = generate_keypair(256)
        a = roundtrip(public.encrypt(20))
        b = roundtrip(public.encrypt(22))
        assert private.decrypt(a) == 20
        assert private.decrypt(a + b) == 42
        assert isinstance(a, PaillierCiphertext)

    def test_private_key_roundtrip_keeps_crt_decrypt(self):
        public, private = generate_keypair(256)
        ciphertexts = public.encrypt_values([3, -7, 10 ** 6])
        restored = roundtrip(private)
        assert restored.decrypt_values(ciphertexts) == [3, -7, 10 ** 6]


class TestCipherTransport:
    def test_deterministic_cipher_with_hot_memos(self):
        cipher = DeterministicCipher(primitives.generate_key())
        tokens = cipher.encrypt_many(["a", "b", "a", 12])
        restored = roundtrip(cipher)
        assert restored.encrypt_many(["a", "b", "a", 12]) == tokens
        assert restored.decrypt_many(tokens) == ["a", "b", "a", 12]

    def test_randomized_cipher_roundtrip(self):
        cipher = RandomizedCipher(primitives.generate_key())
        token = cipher.encrypt("secret")
        restored = roundtrip(cipher)
        assert restored.decrypt(token) == "secret"
        assert cipher.decrypt(restored.encrypt("reply")) == "reply"

    def test_ope_cipher_roundtrip_preserves_order_and_tokens(self):
        cipher = OpeCipher(primitives.generate_key())
        tokens = cipher.encrypt_many([5, 1, 9, 5])
        restored = roundtrip(cipher)
        assert restored.encrypt_many([5, 1, 9, 5]) == tokens
        assert restored.encrypt(0) < restored.encrypt(2) < tokens[2]

    def test_tampering_detected_after_transport(self):
        cipher = DeterministicCipher(primitives.generate_key())
        token = cipher.encrypt("payload")
        restored = roundtrip(cipher)
        tampered = token[:-1] + bytes([token[-1] ^ 1])
        with pytest.raises(CryptoError, match="authentication failed"):
            restored.decrypt(tampered)
