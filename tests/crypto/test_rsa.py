"""RSA envelope primitives: the CRT private-key kernel against the
full-exponent formula, self-checked signatures, and strict rejection of
malformed signatures and hybrid ciphertexts."""

import dataclasses
import inspect
import random
import struct

import pytest

from repro.crypto import rsa
from repro.crypto.rsa import DEFAULT_RSA_BITS, generate_keypair
from repro.crypto.symmetric import RandomizedCipher
from repro.distributed.runtime import (
    SubjectNode,
    build_runtime,
    generate_subject_keys,
)
from repro.exceptions import CryptoError
from repro.service.workload import QueryService

MESSAGES = (b"", b"m", b"message", b"x" * 5000,
            random.Random(15).randbytes(257))


def full_exponent(private):
    """Test-side oracle: ``d = e^-1 mod (p-1)(q-1)``, which ``src/`` no
    longer computes or stores."""
    return pow(private.public.e, -1, (private.p - 1) * (private.q - 1))


class TestRsa:
    @pytest.fixture(scope="class")
    def keys(self):
        return generate_keypair(512)

    def test_sign_verify(self, keys):
        public, private = keys
        signature = private.sign(b"message")
        assert public.verify(b"message", signature)
        assert not public.verify(b"other", signature)
        assert not public.verify(b"message", b"\x00" * 64)

    def test_hybrid_encryption_roundtrip(self, keys):
        public, private = keys
        payload = b"x" * 5000  # bigger than the modulus
        assert private.decrypt(public.encrypt(payload)) == payload

    def test_truncated_ciphertext_rejected(self, keys):
        public, private = keys
        with pytest.raises(CryptoError):
            private.decrypt(b"\x00\x00")

    def test_wrong_key_rejected(self, keys):
        public, private = keys
        other_public, other_private = generate_keypair(512)
        assert not other_public.verify(b"message", private.sign(b"message"))
        with pytest.raises(CryptoError):
            other_private.decrypt(public.encrypt(b"payload"))

    def test_signature_must_be_one_modulus_wide(self, keys):
        public, private = keys
        signature = private.sign(b"message")
        assert not public.verify(b"message", b"\x00" + signature)
        assert not public.verify(b"message", signature + b"\x00")
        assert not public.verify(b"message", signature[1:])
        assert not public.verify(b"message", b"")
        assert not public.verify(b"message", None)

    def test_corrupted_crt_half_withholds_the_signature(self, keys):
        _, private = keys
        for half in ("dp", "dq", "q_inv"):
            faulty = dataclasses.replace(
                private, **{half: getattr(private, half) ^ 2})
            with pytest.raises(CryptoError, match="self-check"):
                faulty.sign(b"message")

    def test_every_flipped_ciphertext_byte_raises_crypto_error(self, keys):
        public, private = keys
        blob = public.encrypt(b"payload")
        # length prefix | wrapped key | IV | body | tag — every offset.
        assert len(blob) > 4 + 64 + 16 + 12
        for offset in range(len(blob)):
            tampered = bytearray(blob)
            tampered[offset] ^= 0x55
            with pytest.raises(CryptoError):
                private.decrypt(bytes(tampered))

    def test_out_of_range_wrapped_key_rejected(self, keys):
        public, private = keys
        blob = public.encrypt(b"payload")
        body = blob[4 + 64:]
        for wrapped in (0, public.n, public.n + 1, (1 << 512) - 1):
            with pytest.raises(CryptoError, match="out of range"):
                private.decrypt(struct.pack(">I", 64)
                                + wrapped.to_bytes(64, "big") + body)
        # A valid wrapped value, zero-padded to a non-modulus width.
        with pytest.raises(CryptoError, match="modulus wide"):
            private.decrypt(struct.pack(">I", 65) + b"\x00" + blob[4:])
        # In range, but unwrapping to more than 256 bits.
        wide = pow(1 << 300, public.e, public.n)
        with pytest.raises(CryptoError, match="session key"):
            private.decrypt(struct.pack(">I", 64)
                            + wide.to_bytes(64, "big") + body)


@pytest.fixture(scope="module", params=(512, 768, 1024))
def sized_keys(request):
    return generate_keypair(request.param)


class TestCrtAgainstFullExponent:
    def test_signatures_are_bit_identical(self, sized_keys):
        public, private = sized_keys
        d = full_exponent(private)
        width = (public.n.bit_length() + 7) // 8
        for message in MESSAGES:
            expected = pow(rsa._digest_int(message, public.n), d, public.n)
            signature = private.sign(message)
            assert signature == expected.to_bytes(width, "big")
            assert public.verify(message, signature)

    def test_decrypt_matches_the_full_exponent_unwrap(self, sized_keys):
        public, private = sized_keys
        d = full_exponent(private)
        for payload in MESSAGES:
            blob = public.encrypt(payload)
            (wrapped_len,) = struct.unpack(">I", blob[:4])
            wrapped = int.from_bytes(blob[4:4 + wrapped_len], "big")
            session_key = pow(wrapped, d, public.n).to_bytes(32, "big")
            oracle = RandomizedCipher(session_key).decrypt(
                blob[4 + wrapped_len:])
            assert private.decrypt(blob) == oracle == payload

    def test_private_op_on_raw_and_edge_inputs(self, sized_keys):
        public, private = sized_keys
        d = full_exponent(private)
        rng = random.Random(public.n)
        inputs = [0, 1, private.p, private.q, public.n - 1]
        inputs += [rng.randrange(public.n) for _ in range(20)]
        for x in inputs:
            assert private._private_op(x) == pow(x, d, public.n)

    def test_modulus_is_the_product_of_two_half_width_primes(
            self, sized_keys):
        public, private = sized_keys
        assert private.p * private.q == public.n
        assert private.p.bit_length() == private.q.bit_length()
        assert not hasattr(private, "d")


class TestKeySize:
    @pytest.mark.parametrize("bits", (0, 256, 263, 510, 511, 513, 1023))
    def test_small_or_odd_sizes_rejected(self, bits):
        with pytest.raises(CryptoError, match="at least 512"):
            generate_keypair(bits)

    def test_one_default_everywhere(self):
        """``generate_keypair`` alone takes a size; every constructor
        above it builds at the default and offers no way to pick one."""
        assert DEFAULT_RSA_BITS == 512
        assert inspect.signature(generate_keypair).parameters[
            "bits"].default == DEFAULT_RSA_BITS
        for site in (SubjectNode.create, generate_subject_keys,
                     build_runtime, QueryService.__init__):
            assert "rsa_bits" not in inspect.signature(site).parameters, site
        for _, private in generate_subject_keys(["X"]).values():
            assert private.p.bit_length() == DEFAULT_RSA_BITS // 2
