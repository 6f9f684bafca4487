"""Economic cost substrate for the §7 experiments.

Cardinality/size/CPU estimation (standing in for the PostgreSQL
optimizer), provider price lists with the paper's 10×/3× user/authority
ratios, and the ``Cq = Σ Ccpu + Cio + Cnet_io`` cost model over the
10 Gbps / 100 Mbps network of §7.
"""

from repro.cost.estimator import NodeEstimate, PlanEstimator
from repro.cost.model import (
    CostBreakdown,
    CostModel,
    normalized_costs,
    transfer_seconds,
)
from repro.cost.pricing import PriceList, ResourceRates, provider_rates

__all__ = [
    "CostBreakdown", "CostModel", "NodeEstimate", "PlanEstimator",
    "PriceList", "ResourceRates", "normalized_costs", "provider_rates",
    "transfer_seconds",
]
