#!/usr/bin/env python3
"""The §7 economics: TPC-H under three authorization scenarios.

Regenerates Figures 9 and 10 of the paper on the simulated substrate:
22 TPC-H queries, two data authorities, three cloud providers, and the
UA / UAPenc / UAPmix authorization scenarios, then shows who does
what for one provider-friendly query.

Run:  python examples/cloud_cost_optimization.py
"""

from repro.cost.pricing import PriceList
from repro.core.assignment import assign
from repro.experiments.economics import run_economics
from repro.tpch.queries import all_queries
from repro.tpch.scenarios import all_scenarios
from repro.tpch.schema import build_tpch_schema

SCALE = 0.1


def main() -> None:
    results = run_economics(scale=SCALE)

    print("=== Figure 9: per-query normalized cost ===")
    print(results.figure9_table())

    print("\n=== Figure 10: cumulative normalized cost ===")
    print(results.figure10_table())

    # Where do the savings come from?  Inspect one provider-friendly
    # query in detail.
    schema = build_tpch_schema(SCALE)
    scenario_obj = all_scenarios(schema)["UAPenc"]
    plan = all_queries()[4].plan(schema)  # Q5: local supplier volume
    prices = PriceList.from_subjects(scenario_obj.subjects)
    outcome = assign(plan, scenario_obj.policy, scenario_obj.subject_names,
                     prices, user=scenario_obj.user,
                     owners=scenario_obj.owners)
    print("\n=== Q5 under UAPenc: who does what ===")
    print(outcome.describe())
    print("keys:", outcome.keys.describe().replace("\n", " | ") or "-")


if __name__ == "__main__":
    main()
