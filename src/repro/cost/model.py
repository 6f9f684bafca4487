"""The economic cost model of §7.

``Cq = Σ_n C_cpu(n) + C_io(n) + C_net_io(n)`` — for every node of the
(extended) plan, the CPU time of the operation priced at its assignee's
rate, the local I/O volume priced at the assignee's rate, and the network
transfer of intermediate results priced at the sender's egress rate.

Leaf scans happen at the data authority owning the relation; the final
result is shipped to the querying user.  The model also estimates elapsed
time (CPU + transfer over the §7 topology), supporting the paper's
"maximum performance overhead" threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.authorization import holder_of
from repro.core.extension import ExtendedPlan
from repro.core.operators import BaseRelationNode, PlanNode
from repro.cost.estimator import NodeEstimate, PlanEstimator
from repro.cost.network import NetworkTopology
from repro.cost.pricing import PriceList
from repro.exceptions import EstimationError

_GB = 1e9


@dataclass
class CostBreakdown:
    """Total and per-component cost of one plan execution, in USD."""

    cpu_usd: float = 0.0
    io_usd: float = 0.0
    net_usd: float = 0.0
    elapsed_seconds: float = 0.0
    per_subject_usd: dict[str, float] = field(default_factory=dict)
    per_node: list[tuple[str, str, float]] = field(default_factory=list)

    @property
    def total_usd(self) -> float:
        """``Cq`` of §7."""
        return self.cpu_usd + self.io_usd + self.net_usd

    def charge(self, subject: str, label: str, cpu: float = 0.0,
               io: float = 0.0, net: float = 0.0,
               seconds: float = 0.0) -> None:
        """Accumulate one node's (or transfer's) contribution."""
        self.cpu_usd += cpu
        self.io_usd += io
        self.net_usd += net
        self.elapsed_seconds += seconds
        amount = cpu + io + net
        self.per_subject_usd[subject] = (
            self.per_subject_usd.get(subject, 0.0) + amount
        )
        self.per_node.append((label, subject, amount))

    def describe(self) -> str:
        """One-line summary."""
        return (f"total=${self.total_usd:.6f} "
                f"(cpu=${self.cpu_usd:.6f}, io=${self.io_usd:.6f}, "
                f"net=${self.net_usd:.6f}, "
                f"elapsed={self.elapsed_seconds:.3f}s)")


class CostModel:
    """Prices an extended plan under a price list and network topology."""

    def __init__(self, prices: PriceList,
                 topology: NetworkTopology,
                 estimator: PlanEstimator | None = None) -> None:
        self.prices = prices
        self.topology = topology
        self.estimator = estimator or PlanEstimator()

    # ------------------------------------------------------------------
    # Elementary charges
    # ------------------------------------------------------------------
    def operation_cost_usd(self, estimate: NodeEstimate,
                           subject: str) -> tuple[float, float]:
        """(cpu_usd, io_usd) of running one estimated operation."""
        rates = self.prices.rates(subject)
        cpu = estimate.cpu_seconds * rates.cpu_usd_per_second
        io = estimate.io_bytes / _GB * rates.io_usd_per_gb
        return cpu, io

    def transfer_cost_usd(self, volume_bytes: float, sender: str) -> float:
        """Network cost of shipping ``volume_bytes`` from ``sender``."""
        return volume_bytes / _GB * self.prices.rates(sender).net_usd_per_gb

    # ------------------------------------------------------------------
    # Whole-plan costing
    # ------------------------------------------------------------------
    def extended_plan_cost(self, extended: ExtendedPlan, user: str,
                           owners: Mapping[str, str] | None = None,
                           ) -> CostBreakdown:
        """Exact ``Cq`` of an extended plan with its assignment.

        Every node is charged to its assignee (leaves to the owning
        authority); every parent/child assignee change is charged as a
        network transfer of the child's output; the root result is
        shipped to ``user``.
        """
        plan = extended.plan
        estimates = self.estimator.estimate(plan)
        breakdown = CostBreakdown()

        def location_of(node: PlanNode) -> str:
            if isinstance(node, BaseRelationNode):
                return holder_of(node.relation.name, owners)
            return extended.assignee(node)

        for node in plan.postorder():
            subject = location_of(node)
            estimate = estimates[id(node)]
            cpu, io = self.operation_cost_usd(estimate, subject)
            breakdown.charge(subject, node.label(), cpu=cpu, io=io,
                             seconds=estimate.cpu_seconds)
            parent = plan.parent(node)
            receiver = location_of(parent) if parent is not None else user
            if receiver != subject:
                volume = estimate.output_bytes
                breakdown.charge(
                    subject,
                    f"{node.label()} → {receiver}",
                    net=self.transfer_cost_usd(volume, subject),
                    seconds=self.topology.transfer_seconds(
                        volume, subject, receiver
                    ),
                )
        return breakdown


def normalized_costs(costs: Mapping[str, CostBreakdown],
                     baseline: str) -> dict[str, float]:
    """Costs normalized to a baseline scenario (Figures 9–10)."""
    if baseline not in costs:
        raise EstimationError(f"baseline scenario {baseline!r} missing")
    base = costs[baseline].total_usd
    if base <= 0:
        raise EstimationError("baseline cost must be positive")
    return {name: c.total_usd / base for name, c in costs.items()}
