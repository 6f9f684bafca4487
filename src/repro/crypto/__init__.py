"""Encryption toolkit: the schemes the paper's tool relies on (§7).

* randomized + deterministic symmetric encryption (an HMAC-PRF stream
  cipher stands in for the AES of the paper's tool: same modes, same
  leakage, no dependency beyond the standard library);
* the Paillier additively homomorphic cryptosystem (``sum``/``avg``);
* order-preserving encryption (range conditions);
* RSA signatures and hybrid encryption for sub-query dispatch;
* key management bridging model-level query keys to cipher material;
  ``KeyMaterial.seal`` / ``open`` are the one place a scheme's column
  work is chosen, inline and on the worker pool alike.

Everything on the encrypted-execution hot path is built as columnar
batch kernels: ciphers derive their subkeys once and expose
``encrypt_many``/``decrypt_many``, deterministic/OPE encryption is
equality-aware memoized, and Paillier uses the binomial ``g = n + 1``
shortcut, an independent fixed-base ``h^α`` obfuscator per ciphertext,
and CRT decryption.
The per-value costs that calibrate ``repro.cost.factors`` are the
end-to-end benchmark's per-layer metrics
``crypto.{det,rnd,ope,paillier_enc,paillier_dec}_us_per_value``
(``python3 benchmarks/e2e/run.py --trace 1``).
"""

from repro.crypto.keymanager import DistributedKeys, KeyMaterial, KeyStore
from repro.crypto.ope import OpeCipher, decode_numeric, encode_orderable
from repro.crypto.paillier import (
    PaillierCiphertext,
    PaillierPrivateKey,
    PaillierPublicKey,
)
from repro.crypto.paillier import generate_keypair as generate_paillier_keypair
from repro.crypto.primitives import (
    decode_value,
    encode_value,
    generate_key,
    generate_prime,
    prf,
)
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.crypto.rsa import generate_keypair as generate_rsa_keypair
from repro.crypto.symmetric import DeterministicCipher, RandomizedCipher

__all__ = [
    "DeterministicCipher", "DistributedKeys", "KeyMaterial", "KeyStore",
    "OpeCipher", "PaillierCiphertext", "PaillierPrivateKey",
    "PaillierPublicKey", "RandomizedCipher", "RsaPrivateKey",
    "RsaPublicKey", "decode_numeric", "decode_value", "encode_orderable",
    "encode_value", "generate_key", "generate_paillier_keypair",
    "generate_prime", "generate_rsa_keypair", "prf",
]
