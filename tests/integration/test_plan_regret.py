"""``scripts/plan_regret.py`` on one cell (its smoke test).

Q5 under UAPenc has two join orders and the service keeps owner-first;
both run cold on the service's runtime, each answer agrees with sqlite
by position, and the regret is the chosen order's time over the faster.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "plan_regret.py"


@pytest.fixture(scope="module")
def plan_regret():
    spec = importlib.util.spec_from_file_location("plan_regret", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_cell_runs_both_orders_and_agrees_with_sqlite(plan_regret):
    (row,) = plan_regret.measure(cells=((5, "UAPenc"),), repeats=1)
    assert row["cell"] == "Q5/UAPenc"
    assert [(run["label"], run["chosen"]) for run in row["runs"]] == [
        ("FROM", False), ("owner-first", True)]
    assert all(run["agrees"] for run in row["runs"])
    chosen, other = row["runs"][1], row["runs"][0]
    assert chosen["estimate"] < other["estimate"]
    assert row["regret"] == chosen["ms"] / min(chosen["ms"], other["ms"])


def test_spearman_ranks_ties_on_their_mean(plan_regret):
    assert plan_regret.spearman([1, 2, 3], [10, 30, 20]) == \
        pytest.approx(0.5)
    assert plan_regret.spearman([1, 1, 2], [5, 6, 7]) == \
        pytest.approx(0.8660254)
