"""Ablations of the design choices DESIGN.md calls out.

* **visibility strategy** (§5's discussion): maximizing visibility
  (encrypt only when strictly required — our minimal extension),
  minimizing visibility (encrypt everything at the sources and decrypt
  on demand — the "minimum required view" plan), and the paper's
  candidate-driven middle ground;
* **UAPmix attribute split**: prefix vs alternating halves — the latter
  scatters plaintext across join equivalences and triggers condition 3 of
  Definition 4.1 (uniform visibility), collapsing provider eligibility.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.assignment import assign
from repro.core.candidates import compute_candidates
from repro.core.extension import minimally_extend
from repro.core.keys import establish_keys, schemes_for_extended_plan
from repro.cost.estimator import PlanEstimator
from repro.cost.model import CostModel
from repro.cost.network import NetworkTopology
from repro.cost.pricing import PriceList
from repro.exceptions import NoCandidateError
from repro.tpch.queries import all_queries
from repro.tpch.scenarios import Scenario, all_scenarios
from repro.tpch.schema import build_tpch_schema


@dataclass(frozen=True)
class AblationPoint:
    """One (query, variant) measurement."""

    query: int
    variant: str
    total_usd: float
    encrypted_attributes: int
    encryption_operations: int
    decryption_operations: int


def visibility_ablation(query_number: int, scenario_obj: Scenario,
                        scale: float = 0.1) -> list[AblationPoint]:
    """Minimal extension vs encrypt-everything on one query.

    The encrypt-everything variant realizes §5's "minimizing visibility"
    extreme: every leaf is fully encrypted (the minimum required views),
    and attributes are decrypted only when an operation requires
    plaintext.  The paper's approach encrypts only what the chosen
    assignment demands.
    """
    schema = build_tpch_schema(scale)
    prices = PriceList.from_subjects(scenario_obj.subjects)
    points: list[AblationPoint] = []

    # The paper's approach: candidate-driven minimal extension.
    plan = all_queries()[query_number - 1].plan(schema)
    outcome = assign(
        plan, scenario_obj.policy, scenario_obj.subject_names, prices,
        user=scenario_obj.user, owners=scenario_obj.owners,
    )
    points.append(AblationPoint(
        query=query_number,
        variant="minimal-extension",
        total_usd=outcome.cost.total_usd,
        encrypted_attributes=len(outcome.extended.encrypted_attributes),
        encryption_operations=len(outcome.extended.encryption_operations()),
        decryption_operations=len(outcome.extended.decryption_operations()),
    ))

    # Minimizing visibility: same assignment, but disable opportunistic
    # decryption so operations run on ciphertext whenever the model
    # allows, maximizing encrypted work.
    plan = all_queries()[query_number - 1].plan(schema)
    candidates = compute_candidates(
        plan, scenario_obj.policy, scenario_obj.subject_names
    )
    assignment = {}
    for node in plan.operations():
        names = candidates[node]
        if not names:
            raise NoCandidateError(f"no candidate for {node.label()}")
        # Prefer providers (most encrypted execution), then authorities.
        providers = [n for n in sorted(names) if n.startswith("P")]
        assignment[node] = providers[0] if providers else sorted(names)[0]
    extended = minimally_extend(
        plan, scenario_obj.policy, assignment, owners=scenario_obj.owners,
        deliver_to=scenario_obj.user, opportunistic_decryption=False,
    )
    schemes = schemes_for_extended_plan(extended)
    keys = establish_keys(extended, scenario_obj.policy, schemes=schemes)
    model = CostModel(prices, NetworkTopology.paper_defaults(
        scenario_obj.user), PlanEstimator(schemes))
    cost = model.extended_plan_cost(
        extended, scenario_obj.user, scenario_obj.owners
    )
    points.append(AblationPoint(
        query=query_number,
        variant="minimize-visibility",
        total_usd=cost.total_usd,
        encrypted_attributes=len(extended.encrypted_attributes),
        encryption_operations=len(extended.encryption_operations()),
        decryption_operations=len(extended.decryption_operations()),
    ))
    _ = keys
    return points


def mix_split_ablation(query_numbers: tuple[int, ...],
                       scale: float = 0.1) -> dict[str, float]:
    """Cumulative UAPmix cost under prefix vs alternating splits.

    Demonstrates condition 3 (uniform visibility) of Definition 4.1: the
    alternating split gives providers plaintext on one side of most join
    pairs and encrypted on the other, which disqualifies them from the
    joins and erases the savings.
    """
    schema = build_tpch_schema(scale)
    totals: dict[str, float] = {}
    for split in ("prefix", "alternating"):
        scenario_obj = all_scenarios(schema, split)["UAPmix"]
        prices = PriceList.from_subjects(scenario_obj.subjects)
        total = 0.0
        for number in query_numbers:
            plan = all_queries()[number - 1].plan(schema)
            outcome = assign(
                plan, scenario_obj.policy, scenario_obj.subject_names,
                prices, user=scenario_obj.user,
                owners=scenario_obj.owners,
            )
            total += outcome.cost.total_usd
        totals[split] = total
    return totals
