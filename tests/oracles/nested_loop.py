"""The seed's join semantics: ``σ_C(L × R)``, one predicate per pair."""

from __future__ import annotations

from repro.core.operators import Join
from repro.engine.executor import _residual_checks, _residuals_hold
from repro.engine.table import Table


def nested_loop_join(node: Join, left: Table, right: Table) -> Table:
    """Every conjunct of ``node``'s condition over every operand pair."""
    basics = list(node.condition.basic_conditions())
    checks = _residual_checks(basics, left, right)
    rows = [
        lr + rr
        for lr in left.rows for rr in right.rows
        if _residuals_hold(checks, lr, rr)
    ]
    return Table("⋈", left.columns + right.columns, rows)
