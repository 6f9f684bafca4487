#!/usr/bin/env python
"""Multicore data-plane scale-out: process-pool kernels vs single-core.

The ISSUE-7 acceptance bar: fanning column crypto across the shared
:class:`~repro.parallel.WorkerPool` must buy ≥3× on whole-column
Paillier decryption at ≥4 workers, while every parallel path stays
**bit-identical** to the single-core path it shadows.

Two phases:

1. whole-column Paillier decrypt (`decrypt_column`) with 1 worker vs N;
2. encrypted TPC-H Q3 through a :class:`~repro.service.QueryService`
   with ``workers=0`` (the inline plane) vs ``workers=N``.

Structural invariants always gate the exit status: parallel results
must equal the sequential rows *exactly* (values and order).  The
wall-clock speedup bar gates only the full run, and only when the host
actually has ≥4 CPUs — a single-core runner physically cannot
demonstrate parallel speedup, so there it is report-only (printed as a
warning), as it is under ``--quick``.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_parallel_scaleout.py
    PYTHONPATH=src python benchmarks/bench_parallel_scaleout.py \
        --quick --json BENCH_parallel.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # allow running without PYTHONPATH set
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.keys import QueryKey
from repro.core.requirements import EncryptionScheme
from repro.crypto.keymanager import KeyMaterial
from repro.crypto.paillier import generate_keypair
from repro.engine import Table
from repro.engine.codec import decrypt_column, encrypt_column
from repro.parallel import WorkerPool, shared_pool
from repro.parallel.pool import MIN_PARALLEL_ITEMS
from repro.service import QueryService
from repro.tpch import TPCH_UDFS, all_scenarios, build_tpch_schema, \
    generate, query
from repro.tpch.schema import table_owners

SPEEDUP_BAR = 3.0
MIN_CPUS_FOR_BAR = 4


def pick_workers() -> int:
    cpus = os.cpu_count() or 1
    return max(2, min(cpus, 8))


def warm(pool: WorkerPool) -> None:
    """Spawn the pool's processes before any timing starts."""
    count = max(pool.workers * 2, MIN_PARALLEL_ITEMS)
    pool.map_chunks(_noop_task, None, list(range(count)))


def _noop_task(_payload, items):
    return items


def bench_paillier_decrypt(values: int, bits: int,
                           workers: int) -> dict[str, object]:
    """Phase 1: whole-column Paillier decrypt, 1 worker vs N."""
    public, private = generate_keypair(bits)
    material = KeyMaterial(
        query_key=QueryKey(frozenset({"P"}), EncryptionScheme.PAILLIER),
        paillier_public=public, paillier_private=private,
    )
    rng = random.Random(17)
    plain = [rng.randrange(10_000) for _ in range(values)]
    column = encrypt_column(material, plain)

    sequential = decrypt_column(material, column)

    timings: dict[str, float] = {}
    rows: dict[str, list] = {}
    for label, count in (("workers_1", 1), ("workers_n", workers)):
        pool = WorkerPool(count)
        warm(pool)
        started = time.perf_counter()
        rows[label] = decrypt_column(material, column, pool=pool)
        timings[label] = time.perf_counter() - started
        pool.close()

    return {
        "values": values,
        "paillier_bits": bits,
        "workers_n": workers,
        "seconds_1": timings["workers_1"],
        "seconds_n": timings["workers_n"],
        "speedup": timings["workers_1"] / timings["workers_n"],
        "matches_sequential": (rows["workers_1"] == sequential
                               and rows["workers_n"] == sequential
                               and sequential == plain),
    }


def bench_tpch_q3(scale: float, workers: int) -> dict[str, object]:
    """Phase 2: encrypted TPC-H Q3, inline plane vs parallel plane."""
    schema = build_tpch_schema(scale)
    data = generate(scale=scale, seed=11)
    scenario = all_scenarios(schema)["UAPenc"]
    authority_tables: dict[str, dict[str, Table]] = {"A1": {}, "A2": {}}
    for name, owner in table_owners().items():
        authority_tables[owner][name] = data.table(name)
    sql = query(3).sql

    def run(count: int) -> tuple[float, list]:
        service = QueryService(
            schema, scenario.policy, scenario.subjects, scenario.owners,
            authority_tables, user=scenario.user, udfs=TPCH_UDFS,
            workers=count,
        )
        pool = shared_pool(count)
        if pool is not None:
            warm(pool)
        started = time.perf_counter()
        outcome = service.execute(sql)
        seconds = time.perf_counter() - started
        if pool is not None:
            pool.close()
        return seconds, list(outcome.result.rows)

    inline_seconds, inline_rows = run(0)
    parallel_seconds, parallel_rows = run(workers)
    return {
        "scale": scale,
        "workers_n": workers,
        "result_rows": len(inline_rows),
        "seconds_inline": inline_seconds,
        "seconds_parallel": parallel_seconds,
        "speedup": inline_seconds / parallel_seconds,
        "matches_sequential": parallel_rows == inline_rows,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller smoke configuration for CI")
    parser.add_argument("--json", type=Path, default=None,
                        help="write measurements to this path")
    arguments = parser.parse_args()

    workers = pick_workers()
    cpus = os.cpu_count() or 1
    if arguments.quick:
        decrypt_values, paillier_bits = 320, 256
        tpch_scale = 0.002
    else:
        decrypt_values, paillier_bits = 3000, 512
        tpch_scale = 0.002

    print(f"multicore scale-out: {cpus} CPUs, using {workers} workers")

    paillier = bench_paillier_decrypt(decrypt_values, paillier_bits, workers)
    print(f"  paillier decrypt ({paillier['values']} values, "
          f"{paillier['paillier_bits']}-bit): "
          f"1 worker {paillier['seconds_1'] * 1000:.1f} ms, "
          f"{workers} workers {paillier['seconds_n'] * 1000:.1f} ms "
          f"→ {paillier['speedup']:.2f}x")

    tpch = bench_tpch_q3(tpch_scale, workers)
    print(f"  encrypted TPC-H Q3 (scale {tpch['scale']}): "
          f"inline {tpch['seconds_inline'] * 1000:.1f} ms, "
          f"parallel {tpch['seconds_parallel'] * 1000:.1f} ms "
          f"→ {tpch['speedup']:.2f}x")

    if arguments.json is not None:
        arguments.json.write_text(json.dumps({
            "quick": arguments.quick,
            "cpus": cpus,
            "workers": workers,
            "paillier_decrypt": paillier,
            "tpch_q3": tpch,
        }, indent=2, sort_keys=True))
        print(f"measurements written to {arguments.json}")

    failures = []
    for name, phase in (("paillier decrypt", paillier), ("tpch q3", tpch)):
        if not phase["matches_sequential"]:
            failures.append(
                f"{name}: parallel rows differ from the inline rows")
    if paillier["speedup"] < SPEEDUP_BAR:
        miss = (f"paillier decrypt speedup {paillier['speedup']:.2f}x "
                f"< bar {SPEEDUP_BAR}x at {workers} workers")
        if arguments.quick:
            # Timing is report-only in smoke mode: shared CI runners are
            # too contended to gate merges on wall-clock bars.
            print(f"WARN (report-only under --quick): {miss}",
                  file=sys.stderr)
        elif cpus < MIN_CPUS_FOR_BAR:
            # A host without enough cores cannot demonstrate parallel
            # speedup no matter how good the data plane is.
            print(f"WARN (host has {cpus} CPUs < {MIN_CPUS_FOR_BAR}; "
                  f"speedup bar not gated): {miss}", file=sys.stderr)
        else:
            failures.append(miss)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
