"""The reference for fairness gates: each tenant's fair dispatch share."""

from __future__ import annotations

from typing import Iterable


def fair_shares(weights: dict[str, int],
                active: Iterable[str] | None = None) -> dict[str, float]:
    """Each tenant's fair dispatch share among ``active`` tenants.

    The reference for fairness gates: over a window where exactly the
    ``active`` tenants stay backlogged, smooth WRR serves tenant ``t``
    a ``weights[t] / sum(active weights)`` fraction of dispatches
    (within one dispatch per tenant).
    """
    names = list(weights if active is None else active)
    total = sum(weights[name] for name in names)
    if total <= 0:
        raise ValueError("no active weight")
    return {name: weights[name] / total for name in names}
