#!/usr/bin/env python3
"""A tour of the encrypted-execution substrate.

Shows the four scheme families of §7 doing the work the model assigns
them — deterministic equality, OPE ranges, Paillier sums — plus the
dispatch envelopes ([[q, keys]priU]pubS) detecting tampering.

Run:  python examples/encrypted_execution_tour.py
"""

from repro.core.keys import QueryKey
from repro.core.requirements import EncryptionScheme
from repro.crypto.keymanager import KeyStore
from repro.crypto.ope import OpeCipher
from repro.crypto.paillier import generate_keypair
from repro.crypto.rsa import generate_keypair as generate_rsa
from repro.crypto.symmetric import DeterministicCipher, RandomizedCipher
from repro.distributed.messages import (
    SubQueryPayload,
    open_envelope,
    seal_envelope,
)
from repro.exceptions import DispatchError


def main() -> None:
    key = b"tour-key-32-bytes-padded-here!!!"

    # Deterministic: equality survives encryption (joins, group-by).
    det = DeterministicCipher(key)
    print("deterministic:",
          det.encrypt("stroke") == det.encrypt("stroke"),
          "(equal plaintexts, equal tokens)")
    print("              ",
          det.encrypt("stroke") != det.encrypt("cardiac"),
          "(different plaintexts, different tokens)")

    # Randomized: nothing survives — the safe default for transit.
    rand = RandomizedCipher(key)
    print("randomized:   ",
          rand.encrypt("stroke") != rand.encrypt("stroke"),
          "(same plaintext, unlinkable ciphertexts)")

    # OPE: order survives (range selections, min/max).
    ope = OpeCipher(key)
    premiums = [60.0, 90.0, 150.0, 200.0]
    tokens = [ope.encrypt(p) for p in premiums]
    print("ope:          ", tokens == sorted(tokens),
          "(ciphertext order = plaintext order)")
    threshold = ope.encrypt(100)
    print("              ",
          [p for p, t in zip(premiums, tokens) if t > threshold],
          "> 100, computed on ciphertexts")

    # Paillier: sums survive (sum/avg aggregates).
    public, private = generate_keypair(512)
    ciphertexts = [public.encrypt(p) for p in premiums]
    total = ciphertexts[0]
    for c in ciphertexts[1:]:
        total = total + c
    print("paillier:     ",
          private.decrypt(total) == sum(premiums),
          f"(homomorphic sum = {private.decrypt(total)})")

    # Key stores route attributes to their key; the key's material
    # seals and opens a column under its own scheme.
    store = KeyStore.generate([
        QueryKey(frozenset({"S", "C"}), EncryptionScheme.DETERMINISTIC),
        QueryKey(frozenset({"P"}), EncryptionScheme.PAILLIER),
    ])
    material = store.material_for_attribute("S")
    sealed = material.seal(["s42", "s7", "s42"])
    print("keystore:     ",
          material is store.material_for_attribute("C")
          and material.open(sealed) == ["s42", "s7", "s42"],
          "(kSC covers S and C; seal/open round-trip a column)")
    paillier = store.material_for_attribute("P")
    print("              ",
          paillier.open(paillier.seal(premiums)) == premiums,
          "(kP seals to raw Paillier ciphertexts and opens them)")

    # Dispatch envelopes: signed by the user, sealed to the recipient.
    user_pub, user_priv = generate_rsa(512)
    provider_pub, provider_priv = generate_rsa(512)
    payload = SubQueryPayload(
        fragment_id="reqX",
        query_text="select T, avg(P^k) as P^k from ⟦reqH⟧ join ⟦reqI⟧ "
                   "on S^k=C^k group by T",
        keystore=KeyStore(),
    )
    envelope = seal_envelope(payload, user_priv, provider_pub)
    received = open_envelope(envelope, provider_priv, user_pub)
    print("envelope:     ", received.query_text == payload.query_text,
          f"({len(envelope)} sealed bytes, signature verified)")

    tampered = envelope[:-1] + bytes([envelope[-1] ^ 0x01])
    try:
        open_envelope(tampered, provider_priv, user_pub)
        print("envelope:      TAMPERING NOT DETECTED (bug!)")
    except Exception as error:  # CryptoError or DispatchError
        print("envelope:      True (tampered envelope rejected:",
              type(error).__name__ + ")")
    _ = DispatchError


if __name__ == "__main__":
    main()
