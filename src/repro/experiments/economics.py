"""The §7 economic evaluation: Figures 9 and 10.

Runs the 22 TPC-H queries under the three authorization scenarios
(UA / UAPenc / UAPmix), assigning operations with the cost-based pipeline
and reporting per-query normalized costs (Figure 9), cumulative costs
(Figure 10), and the headline cumulative savings the paper quotes
(54.2 % for UAPenc, 71.3 % for UAPmix).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.assignment import assign
from repro.cost.pricing import PriceList
from repro.exceptions import ReproError
from repro.tpch.queries import all_queries
from repro.tpch.scenarios import SCENARIOS, all_scenarios
from repro.tpch.schema import build_tpch_schema

#: The paper-scale default of ``fig9`` / ``fig10`` (estimates only; no
#: data is generated).
DEFAULT_SCALE = 0.1


@dataclass
class QueryScenarioCost:
    """Cost of one query under one scenario."""

    query: int
    scenario: str
    total_usd: float
    cpu_usd: float
    net_usd: float
    elapsed_seconds: float
    assignees: tuple[str, ...]


@dataclass
class EconomicResults:
    """All figure-9/10 data points plus derived series."""

    scale: float
    costs: dict[tuple[int, str], QueryScenarioCost] = field(
        default_factory=dict
    )

    # ------------------------------------------------------------------
    # Derived series
    # ------------------------------------------------------------------
    def cost_of(self, query: int, scenario: str) -> QueryScenarioCost:
        """One data point."""
        try:
            return self.costs[(query, scenario)]
        except KeyError:
            raise ReproError(
                f"no result for Q{query}/{scenario}"
            ) from None

    def normalized(self, query: int, scenario: str) -> float:
        """Figure 9's y-axis: cost normalized to UA for the same query."""
        baseline = self.cost_of(query, "UA").total_usd
        return self.cost_of(query, scenario).total_usd / baseline

    def per_query_rows(self) -> list[tuple[int, float, float, float]]:
        """Figure 9 rows: (query, UA, UAPenc, UAPmix) normalized."""
        return [
            (q, 1.0, self.normalized(q, "UAPenc"),
             self.normalized(q, "UAPmix"))
            for q in sorted({k[0] for k in self.costs})
        ]

    def cumulative_rows(self) -> list[tuple[int, float, float, float]]:
        """Figure 10 rows: running totals normalized to the mean UA cost.

        The paper's figure accumulates normalized per-query costs, so the
        UA series ends at the query count.
        """
        rows = []
        running = {name: 0.0 for name in SCENARIOS}
        for q in sorted({k[0] for k in self.costs}):
            for name in SCENARIOS:
                running[name] += self.normalized(q, name)
            rows.append((q, running["UA"], running["UAPenc"],
                         running["UAPmix"]))
        return rows

    def total_usd(self, scenario: str) -> float:
        """Total (un-normalized) cost of the 22 queries."""
        return sum(
            c.total_usd for (q, s), c in self.costs.items() if s == scenario
        )

    def saving(self, scenario: str) -> float:
        """Cumulative saving vs UA, as a fraction (the §7 headline)."""
        baseline = self.total_usd("UA")
        return 1.0 - self.total_usd(scenario) / baseline

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def figure9_table(self) -> str:
        """Text rendering of Figure 9."""
        lines = ["query   UA  UAPenc  UAPmix"]
        for q, ua, enc, mix in self.per_query_rows():
            lines.append(f"Q{q:<5d} {ua:4.2f}  {enc:6.3f}  {mix:6.3f}")
        return "\n".join(lines)

    def figure10_table(self) -> str:
        """Text rendering of Figure 10 plus the headline savings."""
        lines = ["query  cumUA  cumUAPenc  cumUAPmix"]
        for q, ua, enc, mix in self.cumulative_rows():
            lines.append(f"Q{q:<5d} {ua:6.2f}  {enc:9.3f}  {mix:9.3f}")
        lines.append(
            f"savings vs UA: UAPenc {self.saving('UAPenc'):.1%} "
            f"(paper: 54.2%), UAPmix {self.saving('UAPmix'):.1%} "
            f"(paper: 71.3%)"
        )
        return "\n".join(lines)


def run_economics(scale: float = DEFAULT_SCALE,
                  queries: tuple[int, ...] | None = None) -> EconomicResults:
    """Regenerate the Figure 9/10 data.

    ``queries`` restricts the run (all 22 by default).  UAPmix splits
    its attributes the way the paper does (``prefix``, see
    :func:`repro.tpch.scenarios.scenario`).
    """
    schema = build_tpch_schema(scale)
    scenarios = all_scenarios(schema)
    results = EconomicResults(scale=scale)
    numbers = queries or tuple(range(1, 23))
    for number in numbers:
        plan_query = all_queries()[number - 1]
        for name, scenario_obj in scenarios.items():
            plan = plan_query.plan(schema)
            prices = PriceList.from_subjects(scenario_obj.subjects)
            outcome = assign(
                plan, scenario_obj.policy, scenario_obj.subject_names,
                prices, user=scenario_obj.user, owners=scenario_obj.owners,
            )
            results.costs[(number, name)] = QueryScenarioCost(
                query=number,
                scenario=name,
                total_usd=outcome.cost.total_usd,
                cpu_usd=outcome.cost.cpu_usd,
                net_usd=outcome.cost.net_usd,
                elapsed_seconds=outcome.cost.elapsed_seconds,
                assignees=tuple(sorted(set(outcome.assignment.values()))),
            )
    return results
