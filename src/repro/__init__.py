"""repro — a reproduction of *An Authorization Model for Multi-Provider
Queries* (De Capitani di Vimercati et al., VLDB).

The library implements the paper's authorization model end to end:
per-relation ``[P, E] → S`` authorizations with three visibility levels,
relation profiles tracking implicit information flow and attribute
equivalences, candidate computation for delegating query operations to
partially trusted cloud providers, minimal on-the-fly insertion of
encryption/decryption, key establishment, cost-based assignment, and
signed/encrypted sub-query dispatch — plus the substrates needed to run
it: a SQL front end, an in-memory relational engine with encrypted
execution, an encryption toolkit, a cloud cost model, a distributed
execution simulator, and a TPC-H workload generator.

Quickstart
----------
>>> from repro.paper_example import build_running_example
>>> from repro import compute_candidates
>>> example = build_running_example()
>>> lam = compute_candidates(example.plan, example.policy,
...                          example.subject_names)
>>> sorted(lam[example.having])
['U', 'Y']
"""

from repro.core import (
    ANY,
    Aggregate,
    AggregateFunction,
    Authorization,
    AttributeComparisonPredicate,
    AttributeValuePredicate,
    BaseRelationNode,
    CandidateAssignment,
    CartesianProduct,
    ComparisonOp,
    Conjunction,
    Decrypt,
    Encrypt,
    EncryptionScheme,
    EquivalenceClasses,
    ExtendedPlan,
    GroupBy,
    Join,
    KeyAssignment,
    PlanNode,
    Policy,
    Projection,
    QueryKey,
    QueryPlan,
    Relation,
    RelationProfile,
    Schema,
    SchemeCapabilities,
    Selection,
    Subject,
    SubjectKind,
    SubjectView,
    Udf,
    authorized_assignees,
    check_relation,
    compute_candidates,
    equals,
    establish_keys,
    infer_plaintext_requirements,
    minimally_extend,
    minimum_view_profiles,
    user_can_receive_result,
    value_equals,
    verify_assignment,
)

__version__ = "1.0.0"

__all__ = [
    "ANY", "Aggregate", "AggregateFunction", "Authorization",
    "AttributeComparisonPredicate", "AttributeValuePredicate",
    "BaseRelationNode", "CandidateAssignment", "CartesianProduct",
    "ComparisonOp", "Conjunction", "Decrypt", "Encrypt",
    "EncryptionScheme", "EquivalenceClasses", "ExtendedPlan", "GroupBy",
    "Join", "KeyAssignment", "PlanNode", "Policy", "Projection",
    "QueryKey", "QueryPlan", "Relation", "RelationProfile", "Schema",
    "SchemeCapabilities", "Selection", "Subject", "SubjectKind",
    "SubjectView", "Udf", "authorized_assignees", "check_relation",
    "compute_candidates", "equals", "establish_keys",
    "infer_plaintext_requirements", "minimally_extend",
    "minimum_view_profiles", "user_can_receive_result",
    "value_equals", "verify_assignment", "__version__",
]
