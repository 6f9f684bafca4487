"""RSA envelope primitives: the CRT private-key kernel against the
full-exponent formula, self-checked signatures, strict rejection of
malformed signatures and hybrid ciphertexts, the sender-to-recipient
session that hybrid encryption runs in, and the verify memo."""

import dataclasses
import inspect
import random
import struct
import sys
import threading

import pytest

from repro.core.cache import Memo
from repro.crypto import rsa
from repro.crypto.rsa import DEFAULT_RSA_BITS, generate_keypair
from repro.crypto.symmetric import RandomizedCipher
from repro.distributed.nodes import build_nodes
from repro.distributed.runtime import build_runtime, generate_subject_keys
from repro.exceptions import CryptoError
from repro.service.workload import QueryService

#: Key generation itself is under test here: no pooled keys.
pytestmark = pytest.mark.usefixtures("fresh_rsa_keys")

MESSAGES = (b"", b"m", b"message", b"x" * 5000,
            random.Random(15).randbytes(257))


@pytest.fixture(scope="module")
def sender():
    """A private key that seals for the recipients under test."""
    return generate_keypair(512)[1]


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

    def test_hybrid_encryption_roundtrip(self, keys, sender):
        public, private = keys
        payload = b"x" * 5000  # bigger than the modulus
        assert private.decrypt(sender.encrypt_for(public, payload)) == payload

    def test_truncated_ciphertext_rejected(self, keys):
        public, private = keys
        with pytest.raises(CryptoError):
            private.decrypt(b"\x00\x00")

    def test_wrong_key_rejected(self, keys, sender):
        public, private = keys
        other_public, other_private = generate_keypair(512)
        assert not other_public.verify(b"message", private.sign(b"message"))
        with pytest.raises(CryptoError):
            other_private.decrypt(sender.encrypt_for(public, b"payload"))

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

    def test_every_flipped_ciphertext_byte_raises_crypto_error(
            self, keys, sender):
        public, private = keys
        blob = sender.encrypt_for(public, b"payload")
        # length prefix | wrapped key | IV | body | tag — every offset.
        assert len(blob) > 4 + 64 + 16 + 12
        for offset in range(len(blob)):
            tampered = bytearray(blob)
            tampered[offset] ^= 0x55
            with pytest.raises(CryptoError):
                private.decrypt(bytes(tampered))

    def test_out_of_range_wrapped_key_rejected(self, keys, sender):
        public, private = keys
        blob = sender.encrypt_for(public, b"payload")
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

    def test_decrypt_matches_the_full_exponent_unwrap(self, sized_keys,
                                                      sender):
        public, private = sized_keys
        d = full_exponent(private)
        for payload in MESSAGES:
            blob = sender.encrypt_for(public, payload)
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


def wrapped_key(blob):
    """The RSA-wrapped session key of a hybrid ciphertext."""
    (width,) = struct.unpack(">I", blob[:4])
    return blob[4:4 + width]


class TestSession:
    """One session per (sender key, recipient key): unwrapped once, every
    body still authenticated, rotated after ``_SESSION_USES`` seals."""

    @pytest.fixture()
    def recipient(self):
        return generate_keypair(512)

    def test_seals_to_one_recipient_share_the_wrapped_key(self, recipient,
                                                          sender):
        public, private = recipient
        first = sender.encrypt_for(public, b"payload")
        second = sender.encrypt_for(public, b"payload")
        head = 4 + len(wrapped_key(first))
        assert first[:head] == second[:head]
        assert first[head:] != second[head:]  # fresh IV per body
        assert private.decrypt(first) == private.decrypt(second) \
            == b"payload"

    def test_session_rotates_after_its_uses(self, recipient, monkeypatch):
        monkeypatch.setattr(rsa, "_SESSION_USES", 4)
        public, private = recipient
        _, sealer = generate_keypair(512)
        blobs = [sealer.encrypt_for(public, b"m%d" % i) for i in range(9)]
        wrapped = [wrapped_key(blob) for blob in blobs]
        assert len(set(wrapped)) == 3
        assert [wrapped.count(w) for w in dict.fromkeys(wrapped)] \
            == [4, 4, 1]
        assert [private.decrypt(blob) for blob in blobs] \
            == [b"m%d" % i for i in range(9)]

    def test_senders_never_share_a_session(self, recipient):
        public, private = recipient
        _, alice = generate_keypair(512)
        _, bob = generate_keypair(512)
        from_alice = alice.encrypt_for(public, b"from alice")
        from_bob = bob.encrypt_for(public, b"from bob")
        assert wrapped_key(from_alice) != wrapped_key(from_bob)
        head = 4 + len(wrapped_key(from_alice))
        # Neither session key opens the other sender's body …
        for sealer, body in ((alice, from_bob[head:]),
                             (bob, from_alice[head:])):
            with pytest.raises(CryptoError, match="authentication"):
                sealer._sessions[public].cipher.decrypt(body)
        # … nor does the recipient, once both sessions are unwrapped.
        assert private.decrypt(from_alice) == b"from alice"
        assert private.decrypt(from_bob) == b"from bob"
        for spliced in (from_alice[:head] + from_bob[head:],
                        from_bob[:head] + from_alice[head:]):
            with pytest.raises(CryptoError, match="authentication"):
                private.decrypt(spliced)

    def test_every_flipped_byte_of_a_later_envelope_raises(self, recipient,
                                                           sender):
        public, private = recipient
        assert private.decrypt(sender.encrypt_for(public, b"first")) \
            == b"first"
        later = sender.encrypt_for(public, b"payload")
        memo = dict(private._unwrapped)
        assert list(memo) == [wrapped_key(later)]
        for offset in range(len(later)):
            tampered = bytearray(later)
            tampered[offset] ^= 0x55
            with pytest.raises(CryptoError):
                private.decrypt(bytes(tampered))
        assert private._unwrapped == memo
        assert private.decrypt(later) == b"payload"

    def test_forged_body_leaves_the_memo_unchanged(self, recipient):
        public, private = recipient
        _, forger = generate_keypair(512)
        blob = forger.encrypt_for(public, b"forged")
        head = 4 + len(wrapped_key(blob))
        # A well-formed wrapped key in front of a body its tag refuses.
        for forged in (blob[:-1] + bytes([blob[-1] ^ 1]),
                       blob[:head] + bytes(len(blob) - head)):
            with pytest.raises(CryptoError, match="authentication"):
                private.decrypt(forged)
            assert private._unwrapped == {}
        assert private.decrypt(blob) == b"forged"
        assert list(private._unwrapped) == [wrapped_key(blob)]

    def test_memos_stay_bounded_under_concurrent_sealers_and_openers(
            self, recipient, monkeypatch):
        monkeypatch.setattr(rsa, "_SESSION_USES", 2)
        monkeypatch.setattr(rsa, "_MEMO_LIMIT", 3)
        public, private = recipient
        monkeypatch.setattr(private._unwrapped, "maxsize", 3)
        sealers = [generate_keypair(512)[1] for _ in range(2)]
        failures = []

        def worker(index):
            sealer = sealers[index % 2]
            for step in range(30):
                message = b"w%d-%d" % (index, step % 5)
                try:
                    blob = sealer.encrypt_for(public, message)
                    signature = sealer.sign(message)
                    if private.decrypt(blob) != message \
                            or not sealer.public.verify(message, signature):
                        failures.append(message)
                except CryptoError as error:
                    failures.append(error)
                if len(private._unwrapped) > 3 \
                        or len(sealer._signed) > 3 \
                        or len(sealer._sessions) > 1:
                    failures.append("bound")

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert len(private._unwrapped) <= 3


class TestVerifyMemo:
    """A public key remembers the signature bytes that verified for a
    digest: a repeat costs the hash alone, anything else its modexp."""

    @pytest.fixture()
    def modexps(self, monkeypatch):
        """Exponents of every modexp ``repro.crypto.rsa`` runs."""
        exponents = []

        def counting_pow(base, exponent, modulus):
            exponents.append(exponent)
            return pow(base, exponent, modulus)

        monkeypatch.setattr(rsa, "pow", counting_pow, raising=False)
        return exponents

    @pytest.fixture(scope="class")
    def keys(self):
        return generate_keypair(512)

    def paid(self, modexps):
        count = len(modexps)
        del modexps[:]
        return count

    def test_repeated_verify_pays_no_modexp(self, keys, modexps):
        public, private = keys
        signature = private.sign(b"body")
        fresh = rsa.RsaPublicKey(public.n)
        del modexps[:]
        assert fresh.verify(b"body", signature)
        assert self.paid(modexps) == 1
        for _ in range(3):
            assert fresh.verify(b"body", signature)
            assert self.paid(modexps) == 0

    def test_flipped_signature_after_a_hit_is_refused_and_pays(
            self, keys, modexps):
        public, private = keys
        signature = private.sign(b"body")
        fresh = rsa.RsaPublicKey(public.n)
        assert fresh.verify(b"body", signature)
        del modexps[:]
        for offset in (-1, 20):
            flipped = bytearray(signature)
            flipped[offset] ^= 0x01
            assert not fresh.verify(b"body", bytes(flipped))
            assert self.paid(modexps) == 1
        assert list(fresh._verified.values()) == [signature]

    def test_failed_verify_is_never_remembered(self, keys, modexps):
        public, private = keys
        signature = private.sign(b"body")
        forged = signature[:-1] + bytes([signature[-1] ^ 0x01])
        fresh = rsa.RsaPublicKey(public.n)
        del modexps[:]
        for _ in range(2):
            assert not fresh.verify(b"body", forged)
            assert self.paid(modexps) == 1
            assert fresh._verified == {}
        # Nor is a signature refused before its modexp.
        assert not fresh.verify(b"body", b"\x00" * 64)
        assert not fresh.verify(b"body", forged[:-1])
        assert fresh._verified == {}

    def test_another_public_key_pays_its_own_modexp(self, keys, modexps):
        public, private = keys
        other, _ = generate_keypair(512)
        signature = private.sign(b"body")
        first = rsa.RsaPublicKey(public.n)
        assert first.verify(b"body", signature)
        del modexps[:]
        # An equal key is another object with its own memo …
        twin = rsa.RsaPublicKey(public.n)
        assert twin == first and twin.verify(b"body", signature)
        assert self.paid(modexps) == 1
        # … and a different key never accepts what the first verified.
        assert not other.verify(b"body", signature)
        assert other._verified == {}

    def test_memo_stays_inside_its_bound_under_six_threads(
            self, keys, monkeypatch):
        monkeypatch.setattr(rsa, "_MEMO_LIMIT", 3)
        public, private = keys
        signed = {b"m%d" % index: private.sign(b"m%d" % index)
                  for index in range(7)}
        verifier = rsa.RsaPublicKey(public.n)
        failures = []

        def worker(offset):
            for step in range(40):
                message = b"m%d" % ((offset + step) % 7)
                if not verifier.verify(message, signed[message]) \
                        or verifier.verify(message, signed[
                            b"m%d" % ((offset + step + 1) % 7)]) \
                        or len(verifier._verified) > 3:
                    failures.append(message)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert len(verifier._verified) == 3
        # Every entry is a digest with the one signature that verified.
        by_digest = {rsa._digest_int(message, public.n): signature
                     for message, signature in signed.items()}
        for digest, signature in verifier._verified.items():
            assert by_digest[digest] == signature

    def test_a_store_racing_an_equal_store_evicts_nothing(
            self, keys, monkeypatch):
        """Two threads may both miss one digest and both store it: the
        second store replaces an entry, so it must not evict another.
        The memo below misses every lookup, as the second thread's did."""
        for limit in ("_MEMO_LIMIT", "_SESSION_USES"):
            monkeypatch.setattr(rsa, limit, 3 if "MEMO" in limit else 1)

        class Raced(Memo):
            def get(self, key, default=None):
                return default

        public, private = keys
        verifier = rsa.RsaPublicKey(public.n)
        signer, opener = dataclasses.replace(private), dataclasses.replace(
            private)
        sealed = [signer.encrypt_for(public, b"m%d" % i) for i in range(3)]
        for index in range(3):
            assert verifier.verify(b"m%d" % index, signer.sign(b"m%d" % index))
            assert opener.decrypt(sealed[index]) == b"m%d" % index
        memos = ((verifier, "_verified"), (signer, "_signed"),
                 (opener, "_unwrapped"))
        for key, memo in memos:
            raced = Raced(3)
            raced.update(getattr(key, memo))
            object.__setattr__(key, memo, raced)
        assert verifier.verify(b"m2", signer.sign(b"m2"))
        assert opener.decrypt(sealed[2]) == b"m2"
        assert [len(getattr(key, memo)) for key, memo in memos] == [3, 3, 3]


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
        for site in (build_nodes, generate_subject_keys,
                     build_runtime, QueryService.__init__):
            assert "rsa_bits" not in inspect.signature(site).parameters, site
        for _, private in generate_subject_keys(["X"]).values():
            assert private.p.bit_length() == DEFAULT_RSA_BITS // 2
