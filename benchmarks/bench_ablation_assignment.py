"""Ablation — the UAPmix attribute split.

The alternating split violates uniform visibility (Definition 4.1,
condition 3) across join pairs and erases the provider savings the
prefix split keeps.  (That the DP portfolio finds the exhaustive optimum
on the running example is a tier-1 test against
``tests/oracles/exhaustive_search.py``.)
"""

from __future__ import annotations

from repro.experiments.ablation import mix_split_ablation

from conftest import BENCH_SCALE


def test_mix_split_ablation(benchmark, capsys):
    """Uniform visibility in action: prefix vs alternating UAPmix split."""
    totals = benchmark.pedantic(
        mix_split_ablation,
        args=((3, 5, 10, 18),),
        kwargs={"scale": BENCH_SCALE},
        rounds=1, iterations=1,
    )
    with capsys.disabled():
        print(f"\nUAPmix split: prefix=${totals['prefix']:.6f} "
              f"alternating=${totals['alternating']:.6f}")
    # The alternating split breaks uniform visibility over join pairs and
    # must not be cheaper than the prefix split.
    assert totals["prefix"] <= totals["alternating"] * 1.001
