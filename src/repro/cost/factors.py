"""Calibration constants for the cost estimator.

Per-tuple CPU costs follow the usual textbook operator model (hash-based
join and aggregation, streaming selection/projection); per-value
encryption costs are calibrated against the *measured* batch-crypto
kernels of :mod:`repro.crypto` (the end-to-end benchmark's per-layer
metrics ``crypto.{det,rnd,ope,paillier_enc,paillier_dec}_us_per_value``,
``python3 benchmarks/e2e/run.py --trace 1``), in the spirit of the
"common benchmarks" the paper cites for its four schemes:
deterministic symmetric encryption is effectively free, randomized and
pooled Paillier encryption cost single-digit microseconds, OPE somewhat
more, and Paillier *decryption* dominates everything by two orders of
magnitude.  Ciphertext expansions mirror the actual sizes produced by
:mod:`repro.crypto` ("our implementation also considered the increase
in size that may derive from the application of encryption").
"""

from __future__ import annotations

from repro.core.requirements import EncryptionScheme

# ---------------------------------------------------------------------------
# Per-tuple operator costs, in CPU seconds, calibrated against PostgreSQL
# on a 1 GB TPC-H database (the paper's estimates came from the
# PostgreSQL optimizer): a full scan of lineitem takes tens of seconds,
# i.e. a few microseconds per tuple per operator.
# ---------------------------------------------------------------------------
SCAN_SECONDS_PER_ROW = 2.5e-6
PREDICATE_SECONDS_PER_ROW = 3.0e-6
PROJECT_SECONDS_PER_ROW = 1.0e-6
HASH_SECONDS_PER_ROW = 8.0e-6
OUTPUT_SECONDS_PER_ROW = 2.5e-6
AGGREGATE_SECONDS_PER_ROW = 4.0e-6
#: The paper singles out udfs as "typically computationally-intensive".
UDF_SECONDS_PER_ROW = 2.0e-4

#: Cap on nested-loop (non-equi) join work, in row-pairs.
NESTED_LOOP_PAIR_SECONDS = 1.0e-7

# ---------------------------------------------------------------------------
# Per-value encryption/decryption costs, in CPU seconds, recalibrated
# against the measured batch-crypto kernels (the e2e per-layer metrics
# ``crypto.*_us_per_value`` are where to read them; the *ratios*
# between schemes are what drives the assignment search):
#
# * deterministic is near-free — derive-once subkeys plus the
#   equality-aware memo amortize the PRF walk over repeated column
#   values (~0.6 µs encrypt / ~0.3 µs decrypt measured);
# * randomized pays a fresh IV and keystream per value (~4 µs);
# * OPE walks the ~48-level partition tree with pivot/value memos
#   (~10 µs encrypt); the engine decrypts OPE attributes through the
#   randomized *recovery* ciphertext, so OPE decryption prices like
#   randomized decryption;
# * Paillier encryption uses the g = n+1 binomial shortcut and is
#   priced as §7's "precomputed randomness" assumption (~4 µs); the
#   independent h^α obfuscator the code now draws online costs ~0.3 ms,
#   and this table is not yet refitted to it.  CRT decryption remains
#   the dominant cost (~650 µs at 512-bit n).
# ---------------------------------------------------------------------------
ENCRYPT_SECONDS_PER_VALUE = {
    EncryptionScheme.RANDOMIZED: 4.0e-6,
    EncryptionScheme.DETERMINISTIC: 6.0e-7,
    EncryptionScheme.OPE: 1.0e-5,
    EncryptionScheme.PAILLIER: 4.0e-6,
}
DECRYPT_SECONDS_PER_VALUE = {
    EncryptionScheme.RANDOMIZED: 4.0e-6,
    EncryptionScheme.DETERMINISTIC: 3.0e-7,
    EncryptionScheme.OPE: 4.0e-6,
    EncryptionScheme.PAILLIER: 6.5e-4,
}
#: Homomorphic addition of two Paillier ciphertexts (one modular multiply
#: mod n² plus the wrapper, measured via ``sum(ciphertexts)``).
PAILLIER_ADD_SECONDS = 4.5e-6

# ---------------------------------------------------------------------------
# Ciphertext sizes, in bytes ("our implementation also considered the
# increase in size that may derive from the application of encryption").
# AES-class ciphers emit whole 16-byte blocks; randomized modes add an IV.
# ---------------------------------------------------------------------------
CIPHER_BLOCK_BYTES = 16
RANDOMIZED_IV_BYTES = 12
#: OPE tokens are 64-bit range points.
OPE_TOKEN_BYTES = 8
#: Paillier ciphertexts live mod n² (512-bit n in the simulator).
PAILLIER_CIPHERTEXT_BYTES = 128


def _blocks(plain_width: int) -> int:
    return CIPHER_BLOCK_BYTES * max(1, -(-plain_width // CIPHER_BLOCK_BYTES))


def encrypted_width(scheme: EncryptionScheme, plain_width: int) -> int:
    """Stored width of one value encrypted under ``scheme``."""
    if scheme is EncryptionScheme.DETERMINISTIC:
        return _blocks(plain_width)
    if scheme is EncryptionScheme.RANDOMIZED:
        return RANDOMIZED_IV_BYTES + _blocks(plain_width)
    if scheme is EncryptionScheme.OPE:
        return OPE_TOKEN_BYTES
    return PAILLIER_CIPHERTEXT_BYTES
