#!/usr/bin/env python
"""Throughput of the encryption substrate: batch kernels vs the seed path.

The §7 tool prices encryption "based on common benchmarks"; this
benchmark measures our actual primitives — once through the columnar
batch kernels of :mod:`repro.crypto` (cached HMAC subkeys, memoized
deterministic/OPE, binomial + pooled Paillier, CRT decryption) and once
through the seed's per-call implementations kept verbatim in
``benchmarks/_seed_crypto.py`` — so the per-scheme *ratios* that drive
the assignment search (``repro.cost.factors``) can be calibrated against
reality.  Deterministic outputs are asserted bit-identical between the
two paths.

The ISSUE-5 acceptance bar enforced here is a ≥10× Paillier encryption
speedup (binomial shortcut + precomputed ``r^n`` pool vs double-pow).
Other scheme speedups are reported, and the measured per-value seconds
are emitted with ``--json`` for trend tracking and factor recalibration.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_crypto.py
    PYTHONPATH=src python benchmarks/bench_crypto.py --quick \
        --json BENCH_crypto.json

Exits non-zero when the Paillier bar is missed or outputs diverge.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # allow running without PYTHONPATH set
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import _seed_crypto as seed

from repro.crypto.ope import OpeCipher
from repro.crypto.paillier import generate_keypair
from repro.crypto.symmetric import DeterministicCipher, RandomizedCipher

PAILLIER_BAR = 10.0

KEY = b"benchmark-key-32-bytes-long!!!!!"


def timed(thunk, repeat: int) -> float:
    """Best-of-``repeat`` wall time of ``thunk()``."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - start)
    return best


def report(name: str, seed_s: float, fast_s: float, count: int,
           results: dict) -> float:
    speedup = seed_s / fast_s if fast_s > 0 else float("inf")
    print(f"  {name:<26} seed {seed_s * 1e6 / count:9.2f} µs/val   "
          f"fast {fast_s * 1e6 / count:9.2f} µs/val   {speedup:8.1f}×")
    results[name] = {
        "seed_seconds_per_value": seed_s / count,
        "fast_seconds_per_value": fast_s / count,
        "speedup": speedup,
        "values": count,
    }
    return speedup


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="batch crypto kernels vs the seed per-call path")
    parser.add_argument("--quick", action="store_true",
                        help="smaller value counts for CI smoke runs")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing runs per measurement, best taken")
    parser.add_argument("--json", type=str, default=None,
                        help="write measurements to this path")
    args = parser.parse_args(argv)

    sym_n = 200 if args.quick else 1000
    ope_n = 100 if args.quick else 400
    pai_n = 24 if args.quick else 64
    repeat = args.repeat

    # Realistic column shape: many repeats over a modest distinct set
    # (join/grouping columns), plus a distinct tail.
    strings = [f"value-{i % 50}" for i in range(sym_n)]
    numbers = [(i % 80) * 7 - 100 for i in range(ope_n)]
    pai_values = [i * 3 - pai_n for i in range(pai_n)]
    results: dict[str, dict] = {}
    failures: list[str] = []

    print(f"crypto substrate: {sym_n} symmetric / {ope_n} OPE / "
          f"{pai_n} Paillier values, best of {repeat}")

    # -- deterministic -------------------------------------------------
    fast_det = DeterministicCipher(KEY)
    seed_det = seed.SeedDeterministicCipher(KEY)
    fast_tokens = fast_det.encrypt_many(strings)
    if fast_tokens != [seed_det.encrypt(v) for v in strings]:
        failures.append("deterministic ciphertexts diverge from the seed")
    seed_s = timed(lambda: [seed.SeedDeterministicCipher(KEY).encrypt(v)
                            for v in strings], repeat)
    fast_s = timed(lambda: DeterministicCipher(KEY).encrypt_many(strings),
                   repeat)
    report("deterministic encrypt", seed_s, fast_s, sym_n, results)

    seed_s = timed(lambda: [seed.SeedDeterministicCipher(KEY).decrypt(t)
                            for t in fast_tokens], repeat)
    fast_s = timed(lambda: DeterministicCipher(KEY).decrypt_many(fast_tokens),
                   repeat)
    report("deterministic decrypt", seed_s, fast_s, sym_n, results)

    # -- randomized ----------------------------------------------------
    seed_s = timed(lambda: [seed.SeedRandomizedCipher(KEY).encrypt(v)
                            for v in strings], repeat)
    fast_s = timed(lambda: RandomizedCipher(KEY).encrypt_many(strings),
                   repeat)
    report("randomized encrypt", seed_s, fast_s, sym_n, results)
    rand_tokens = RandomizedCipher(KEY).encrypt_many(strings)
    if RandomizedCipher(KEY).decrypt_many(rand_tokens) != strings:
        failures.append("randomized bulk roundtrip diverged")

    # -- OPE -----------------------------------------------------------
    fast_ope = OpeCipher(KEY)
    seed_ope = seed.SeedOpeCipher(KEY)
    if fast_ope.encrypt_many(numbers) != [seed_ope.encrypt(v)
                                          for v in numbers]:
        failures.append("OPE ciphertexts diverge from the seed")
    seed_s = timed(lambda: [seed.SeedOpeCipher(KEY).encrypt(v)
                            for v in numbers], repeat)
    fast_s = timed(lambda: OpeCipher(KEY).encrypt_many(numbers), repeat)
    report("ope encrypt", seed_s, fast_s, ope_n, results)

    # -- Paillier ------------------------------------------------------
    public, private = generate_keypair(512)
    obfuscator = public._next_obfuscator()
    fast_c = public.encrypt(123.25, obfuscator=obfuscator)
    if fast_c.value != seed.seed_paillier_encrypt(
            public, 123.25, obfuscator=obfuscator).value:
        failures.append("binomial encryption diverges from the reference")

    seed_s = timed(lambda: [seed.seed_paillier_encrypt(public, v)
                            for v in pai_values], repeat)
    fast_s = timed(lambda: public.encrypt_many(pai_values), repeat)
    paillier_speedup = report("paillier encrypt", seed_s, fast_s, pai_n,
                              results)

    ciphertexts = public.encrypt_many(pai_values)
    # Without its primes a key can only run the seed's λ/µ formula.
    stripped = replace(private, p=None, q=None)
    if private.decrypt_many(ciphertexts) != \
            [stripped.decrypt(c) for c in ciphertexts]:
        failures.append("CRT decryption diverges from the reference")
    seed_s = timed(lambda: [stripped.decrypt(c)
                            for c in ciphertexts], repeat)
    fast_s = timed(lambda: private.decrypt_many(ciphertexts), repeat)
    report("paillier decrypt", seed_s, fast_s, pai_n, results)

    total = private.decrypt(sum(ciphertexts))
    if total != sum(pai_values):
        failures.append(
            f"homomorphic sum() produced {total}, wanted {sum(pai_values)}")

    if args.json:
        payload = {
            "bar": {"paillier_encrypt_speedup_min": PAILLIER_BAR,
                    "measured": paillier_speedup},
            "measurements": results,
            "quick": args.quick,
        }
        Path(args.json).write_text(json.dumps(payload, indent=2))
        print(f"  measurements written to {args.json}")

    for failure in failures:
        print(f"FAIL: {failure}")
    if paillier_speedup < PAILLIER_BAR:
        # Match the repo's CI policy: --quick runs on shared runners
        # gate only structural invariants; wall-clock bars are
        # report-only warnings there and enforced on full runs.
        if args.quick:
            print(f"WARN: paillier encrypt speedup {paillier_speedup:.1f}× "
                  f"below the {PAILLIER_BAR:.0f}× bar (report-only in "
                  f"--quick)")
        else:
            print(f"FAIL: paillier encrypt speedup {paillier_speedup:.1f}× "
                  f"below the {PAILLIER_BAR:.0f}× bar")
            return 1
    if failures:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
