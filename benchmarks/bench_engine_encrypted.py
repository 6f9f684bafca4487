#!/usr/bin/env python
"""Encrypted end-to-end execution: batch crypto kernels vs the seed path.

Executes the running-example query end to end on generated data —
plaintext, then through the Figure 7(a) extended plan with real
encryption, twice: once with the engine's columnar batch-crypto kernels
(``encrypt_column``/``decrypt_column`` over ``Table.replace_columns``,
memoized ciphers, binomial/CRT Paillier) and once through
``benchmarks/_seed_crypto.py``'s ``SeedCryptoExecutor``, which keeps the
seed's per-cell, per-call crypto operators verbatim.  All encrypted runs
must agree with the plaintext answer.

The ISSUE-5 acceptance bar enforced here is a ≥5× end-to-end speedup of
the encrypted running example at 500+ rows.  The measured wall times
(and the encrypted-over-plaintext slowdown that contextualizes the cost
model's per-value factors) are emitted with ``--json``.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_engine_encrypted.py
    PYTHONPATH=src python benchmarks/bench_engine_encrypted.py --quick \
        --json BENCH_encrypted.json

Exits non-zero when the bar is missed or results diverge.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # allow running without PYTHONPATH set
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import _seed_crypto as seed

from repro.core.extension import minimally_extend
from repro.core.keys import establish_keys
from repro.crypto.keymanager import DistributedKeys
from repro.engine import Executor, Table
from repro.paper_example import build_running_example

SPEEDUP_BAR = 5.0
ROWS = 500  # the bar is defined at 500+ rows; --quick trims repeats only


def example_data(rows: int) -> dict[str, Table]:
    rng = random.Random(7)
    diseases = ["stroke", "flu", "cardiac", "asthma"]
    treatments = ["tpa", "surgery", "rest", "statins"]
    hosp = Table("Hosp", ("S", "B", "D", "T"), [
        (f"s{i}", 1950 + rng.randrange(60), rng.choice(diseases),
         rng.choice(treatments))
        for i in range(rows)
    ])
    ins = Table("Ins", ("C", "P"), [
        (f"s{i}", round(rng.uniform(40.0, 400.0), 2)) for i in range(rows)
    ])
    return {"Hosp": hosp, "Ins": ins}


def check_against_plaintext(result: Table, plain: Table, label: str) -> bool:
    if result.columns != plain.columns:
        print(f"FAIL: {label} columns {result.columns} != {plain.columns}")
        return False
    got = sorted(result.rows)
    want = sorted(plain.rows)
    if len(got) != len(want):
        print(f"FAIL: {label} returned {len(got)} rows, wanted {len(want)}")
        return False
    for (t1, p1), (t2, p2) in zip(got, want):
        # Paillier fixed-point arithmetic rounds at 1e-6; allow for it.
        if t1 != t2 or abs(p1 - p2) >= 1e-6:
            print(f"FAIL: {label} row ({t1}, {p1}) != ({t2}, {p2})")
            return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="end-to-end encrypted execution, fast vs seed crypto")
    parser.add_argument("--rows", type=int, default=ROWS,
                        help=f"rows per base table (default {ROWS})")
    parser.add_argument("--quick", action="store_true",
                        help="single timing round for CI smoke runs")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds (fresh keys each), best taken")
    parser.add_argument("--json", type=str, default=None,
                        help="write measurements to this path")
    args = parser.parse_args(argv)
    rows = args.rows
    rounds = 1 if args.quick else args.rounds

    catalog = example_data(rows)
    example = build_running_example()
    extended = minimally_extend(
        example.plan, example.policy, example.assignment_7a(),
        owners=example.owners,
    )

    plain_executor = Executor(catalog)
    start = time.perf_counter()
    plain = plain_executor.execute(example.plan)
    plain_time = time.perf_counter() - start

    print(f"running example at {rows} rows/table "
          f"(plaintext: {plain_time * 1000:.1f} ms)")

    best_seed = best_fast = float("inf")
    ok = True
    for _ in range(rounds):
        # Fresh key material per round: both paths start cold, and the
        # seed/fast executors share identical keys within a round.
        keys = establish_keys(extended, example.policy)
        distributed = DistributedKeys.from_assignment(keys)

        executor = seed.SeedCryptoExecutor(catalog,
                                           keystore=distributed.master)
        start = time.perf_counter()
        seed_result = executor.execute(extended.plan)
        best_seed = min(best_seed, time.perf_counter() - start)

        executor = Executor(catalog, keystore=distributed.master)
        start = time.perf_counter()
        fast_result = executor.execute(extended.plan)
        best_fast = min(best_fast, time.perf_counter() - start)

        ok = check_against_plaintext(seed_result, plain, "seed path") and ok
        ok = check_against_plaintext(fast_result, plain, "fast path") and ok

    speedup = best_seed / best_fast if best_fast > 0 else float("inf")
    print(f"  seed crypto path:  {best_seed * 1000:10.1f} ms "
          f"({best_seed / plain_time:8.1f}× over plaintext)")
    print(f"  batch kernels:     {best_fast * 1000:10.1f} ms "
          f"({best_fast / plain_time:8.1f}× over plaintext)")
    print(f"  speedup:           {speedup:10.1f}×  (bar: ≥{SPEEDUP_BAR:.0f}×)")

    if args.json:
        payload = {
            "rows": rows,
            "bar": {"end_to_end_speedup_min": SPEEDUP_BAR,
                    "measured": speedup},
            "plaintext_seconds": plain_time,
            "seed_encrypted_seconds": best_seed,
            "fast_encrypted_seconds": best_fast,
            "seed_slowdown_vs_plaintext": best_seed / plain_time,
            "fast_slowdown_vs_plaintext": best_fast / plain_time,
            "quick": args.quick,
        }
        Path(args.json).write_text(json.dumps(payload, indent=2))
        print(f"  measurements written to {args.json}")

    if not ok:
        return 1
    if speedup < SPEEDUP_BAR:
        # Match the repo's CI policy: --quick runs on shared runners
        # gate only result correctness; the wall-clock bar is a
        # report-only warning there and enforced on full runs.
        if args.quick:
            print(f"WARN: speedup {speedup:.1f}× below the "
                  f"{SPEEDUP_BAR:.0f}× bar (report-only in --quick)")
        else:
            print(f"FAIL: speedup {speedup:.1f}× below the "
                  f"{SPEEDUP_BAR:.0f}× bar")
            return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
