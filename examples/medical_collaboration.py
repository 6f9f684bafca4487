#!/usr/bin/env python3
"""Multi-authority medical analytics with controlled provider involvement.

The scenario §1 motivates: a hospital network and a genomics lab each
control sensitive relations and want a collaborative analysis — average
biomarker level per diagnosis for high-risk patients — without handing
plaintext to the analytics clouds.

This example shows how authorization changes reshape the candidate sets:

1. with no provider authorizations, only the user can combine the data;
2. granting *encrypted* visibility lets a cloud run the join without ever
   seeing a patient identifier or biomarker in the clear;
3. uniform visibility (Def. 4.1, condition 3) in action: a provider with
   plaintext on one join key but only encrypted on the other is *less*
   eligible than one with encrypted visibility on both.

Run:  python examples/medical_collaboration.py
"""

import random

from repro import (
    ANY,
    Aggregate,
    AggregateFunction,
    Authorization,
    BaseRelationNode,
    GroupBy,
    Join,
    Policy,
    QueryPlan,
    Relation,
    Schema,
    Selection,
    Subject,
    SubjectKind,
    compute_candidates,
    equals,
    establish_keys,
    value_equals,
)
from repro.core.assignment import assign
from repro.core.dispatch import dispatch
from repro.cost.pricing import PriceList
from repro.crypto.keymanager import DistributedKeys
from repro.distributed import build_runtime
from repro.engine import Table


def build_schema() -> Schema:
    schema = Schema()
    schema.add(Relation("Patients", [
        "patient_id", "diagnosis", "risk_class", "ward",
    ], cardinality=20_000))
    schema.add(Relation("Genomics", [
        "sample_id", "biomarker", "sequencing_batch",
    ], cardinality=18_000))
    return schema


def build_plan(schema: Schema) -> QueryPlan:
    patients = BaseRelationNode(
        schema.relation("Patients"),
        ["patient_id", "diagnosis", "risk_class"],
    )
    risky = Selection(patients, value_equals("risk_class", "high"))
    genomics = BaseRelationNode(
        schema.relation("Genomics"), ["sample_id", "biomarker"],
    )
    joined = Join(risky, genomics, equals("patient_id", "sample_id"))
    return QueryPlan(GroupBy(joined, ["diagnosis"], Aggregate(
        AggregateFunction.AVG, "biomarker", alias="avg_biomarker",
    )))


def main() -> None:
    schema = build_schema()
    plan = build_plan(schema)
    subjects = [
        Subject("analyst", SubjectKind.USER),
        Subject("hospital", SubjectKind.AUTHORITY),
        Subject("genlab", SubjectKind.AUTHORITY),
        Subject("cloudA", SubjectKind.PROVIDER),
        Subject("cloudB", SubjectKind.PROVIDER),
    ]
    names = [s.name for s in subjects]
    owners = {"Patients": "hospital", "Genomics": "genlab"}
    patients_rel = schema.relation("Patients")
    genomics_rel = schema.relation("Genomics")

    # --- Step 1: restrictive policy — nobody but the analyst combines.
    policy = Policy(schema)
    policy.grant_all([
        Authorization(patients_rel, patients_rel.attribute_names, (),
                      "hospital"),
        Authorization(genomics_rel, genomics_rel.attribute_names, (),
                      "genlab"),
        Authorization(patients_rel, patients_rel.attribute_names, (),
                      "analyst"),
        Authorization(genomics_rel, genomics_rel.attribute_names, (),
                      "analyst"),
    ])
    candidates = compute_candidates(plan, policy, names)
    print("=== Closed policy: candidates per operation ===")
    print(candidates.describe())

    # --- Step 2: encrypted visibility for the clouds widens candidates.
    policy.grant_all([
        Authorization(patients_rel, (), patients_rel.attribute_names,
                      "cloudA"),
        Authorization(genomics_rel, (), genomics_rel.attribute_names,
                      "cloudA"),
        # cloudB gets *plaintext* on the patient key but only encrypted
        # on the sample key: non-uniform visibility over the join pair.
        Authorization(patients_rel, ["patient_id"],
                      set(patients_rel.attribute_names) - {"patient_id"},
                      "cloudB"),
        Authorization(genomics_rel, (), genomics_rel.attribute_names,
                      "cloudB"),
    ])
    candidates = compute_candidates(plan, policy, names)
    print("\n=== With encrypted cloud visibility ===")
    print(candidates.describe())
    join_node = plan.operations()[1]
    assert "cloudA" in candidates[join_node]
    assert "cloudB" not in candidates[join_node], (
        "cloudB sees patient_id plaintext but sample_id only encrypted — "
        "condition 3 (uniform visibility) rules it out of the join"
    )
    print("\ncloudA can host the join on encrypted identifiers;")
    print("cloudB cannot — its visibility over the joined pair is not "
          "uniform (Definition 4.1, condition 3).")

    # --- Step 3: optimize, dispatch, and actually run it.
    prices = PriceList.from_subjects(subjects)
    outcome = assign(plan, policy, names, prices, user="analyst",
                     owners=owners)
    print("\n=== Cost-optimal extended plan ===")
    print(outcome.describe())

    rng = random.Random(11)
    diagnoses = ["stroke", "diabetes", "cardiac"]
    patients = Table("Patients",
                     ("patient_id", "diagnosis", "risk_class", "ward"), [
        (f"p{i:05d}", rng.choice(diagnoses),
         rng.choice(["high", "low", "low"]), f"w{rng.randrange(8)}")
        for i in range(400)
    ])
    genomics = Table("Genomics",
                     ("sample_id", "biomarker", "sequencing_batch"), [
        (f"p{i:05d}", round(rng.uniform(0.1, 9.9), 2),
         rng.randrange(40))
        for i in range(380)
    ])
    keys = establish_keys(outcome.extended, policy)
    dispatch_plan = dispatch(outcome.extended, keys, owners=owners,
                             user="analyst")
    print("\n=== Dispatch ===")
    print(dispatch_plan.describe())

    runtime = build_runtime(
        policy, subjects,
        {"hospital": {"Patients": patients},
         "genlab": {"Genomics": genomics}},
        user="analyst",
    )
    result, trace = runtime.run(dispatch_plan, outcome.extended, keys,
                                DistributedKeys.from_assignment(keys))
    print("\n=== Average biomarker per diagnosis (high-risk patients) ===")
    for row in sorted(result.iter_dicts(), key=lambda r: str(r["diagnosis"])):
        print(f"  {row['diagnosis']:10s} {row['avg_biomarker']:.3f}")
    print(f"({trace.messages} messages; every delivery passed the "
          "run-time authorization checks)")


if __name__ == "__main__":
    main()
