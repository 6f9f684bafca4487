#!/usr/bin/env python
"""Hash-partitioned join vs the seed nested-loop path.

Times a 2k×2k theta-join with one equality conjunct plus one residual
predicate (``R.a = S.k AND R.b < S.w``), once through the seed's
``σ_C(L×R)`` nested-loop reference strategy and once through the batched
hash-partitioned path, verifying identical results.  The ISSUE-1
acceptance bar is a ≥5× speedup.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_engine_joins.py          # full
    PYTHONPATH=src python benchmarks/bench_engine_joins.py --quick  # smoke

Exits non-zero when the speedup bar is missed or results diverge.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # allow running without PYTHONPATH set
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.operators import BaseRelationNode, Join
from repro.core.predicates import (
    AttributeComparisonPredicate,
    ComparisonOp,
    Conjunction,
)
from repro.core.schema import Relation
from repro.engine import Executor, Table

SPEEDUP_BAR = 5.0

R = Relation("R", ["a", "b"])
S = Relation("S", ["k", "w"])


def build_catalog(rows: int, seed: int = 20170801) -> dict[str, Table]:
    """Two ``rows``-tuple operands with ~4 matches per join key."""
    rng = random.Random(seed)
    domain = max(1, rows // 4)
    left = Table("R", ("a", "b"), [
        (rng.randrange(domain), rng.randrange(1000)) for _ in range(rows)
    ])
    right = Table("S", ("k", "w"), [
        (rng.randrange(domain), rng.randrange(1000)) for _ in range(rows)
    ])
    return {"R": left, "S": right}


def theta_join_node() -> Join:
    return Join(
        BaseRelationNode(R), BaseRelationNode(S),
        Conjunction([
            AttributeComparisonPredicate("a", ComparisonOp.EQ, "k"),
            AttributeComparisonPredicate("b", ComparisonOp.LT, "w"),
        ]),
    )


def timed_run(catalog: dict[str, Table], node: Join, strategy: str,
              repeat: int) -> tuple[float, Table]:
    """Best-of-``repeat`` wall time (robust against scheduler noise)."""
    executor = Executor(catalog, join_strategy=strategy)
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = executor.execute(node)
        best = min(best, time.perf_counter() - start)
    assert result is not None
    return best, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="hash-partitioned vs nested-loop theta-join")
    parser.add_argument("--rows", type=int, default=2000,
                        help="rows per operand (default 2000)")
    parser.add_argument("--quick", action="store_true",
                        help="500-row smoke run for CI")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing runs per strategy, best taken")
    args = parser.parse_args(argv)
    rows = 500 if args.quick else args.rows

    catalog = build_catalog(rows)
    node = theta_join_node()

    print(f"theta-join R({rows}) ⋈[a=k ∧ b<w] S({rows})")
    nested_time, nested_result = timed_run(catalog, node, "nested-loop",
                                           args.repeat)
    print(f"  nested-loop (seed path):  {nested_time * 1000:10.1f} ms "
          f"({rows * rows:,} pairs scanned)")
    hash_time, hash_result = timed_run(catalog, node, "hash", args.repeat)
    print(f"  hash-partitioned:         {hash_time * 1000:10.1f} ms "
          f"({len(hash_result):,} result rows)")

    if not hash_result.same_content(nested_result):
        print("FAIL: strategies disagree on the join result")
        return 1

    speedup = nested_time / hash_time if hash_time > 0 else float("inf")
    print(f"  speedup:                  {speedup:10.1f}×  "
          f"(bar: ≥{SPEEDUP_BAR:.0f}×)")

    if speedup < SPEEDUP_BAR:
        print(f"FAIL: speedup {speedup:.1f}× below the "
              f"{SPEEDUP_BAR:.0f}× bar")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
