"""Core implementation of the paper's authorization model (Sections 2–6).

Re-exports the main types so that ``repro.core`` is a convenient façade:
schemas and relations, authorizations and policies, relation profiles,
plan operators, candidate computation, minimal plan extension, key
establishment, and the authorized-visibility checks.
"""

from repro.core.attrsets import (
    AttributeUniverse,
    MaskProfile,
    MaskView,
    assignee_authorized,
    relation_authorized,
)
from repro.core.authorization import (
    ANY,
    Authorization,
    Policy,
    Subject,
    SubjectKind,
    SubjectView,
)
from repro.core.budget import (
    CancellationToken,
    QueryBudget,
    active_token,
    token_scope,
)
from repro.core.candidates import (
    CandidateAssignment,
    MinimumViewProfiles,
    compute_candidates,
    minimum_required_view,
    minimum_view_profiles,
    user_can_receive_result,
)
from repro.core.equivalence import EquivalenceClasses
from repro.core.extension import (
    ExtendedPlan,
    minimally_extend,
)
from repro.core.keys import (
    KeyAssignment,
    QueryKey,
    cluster_encrypted_attributes,
    establish_keys,
)
from repro.core.operators import (
    Aggregate,
    AggregateFunction,
    BaseRelationNode,
    CartesianProduct,
    Decrypt,
    Encrypt,
    GroupBy,
    Join,
    PlanNode,
    Projection,
    Selection,
    Udf,
)
from repro.core.plan import QueryPlan
from repro.core.plancache import AssignmentCache
from repro.core.predicates import (
    AttributeComparisonPredicate,
    AttributeValuePredicate,
    ComparisonOp,
    Conjunction,
    EncryptedCapability,
    Predicate,
    equals,
    value_equals,
)
from repro.core.profile import RelationProfile
from repro.core.requirements import (
    EncryptionScheme,
    chosen_schemes,
    infer_plaintext_requirements,
    select_scheme,
)
from repro.core.schema import (
    AttributeSpec,
    DATE,
    DECIMAL,
    INTEGER,
    Relation,
    Schema,
    VARCHAR,
)
from repro.core.visibility import (
    AuthorizationCheck,
    authorized_assignees,
    check_assignee,
    check_relation,
    verify_assignment,
)

__all__ = [
    "ANY", "Aggregate", "AggregateFunction", "AssignmentCache",
    "AttributeUniverse", "Authorization",
    "AuthorizationCheck", "AttributeComparisonPredicate",
    "AttributeValuePredicate", "AttributeSpec", "BaseRelationNode",
    "CancellationToken", "CandidateAssignment", "CartesianProduct",
    "ComparisonOp",
    "Conjunction", "DATE", "DECIMAL", "Decrypt", "Encrypt",
    "EncryptedCapability", "EncryptionScheme", "EquivalenceClasses",
    "ExtendedPlan", "GroupBy", "INTEGER", "Join", "KeyAssignment",
    "MaskProfile", "MaskView", "MinimumViewProfiles",
    "PlanNode", "Policy", "Predicate",
    "Projection", "QueryBudget", "QueryKey", "QueryPlan", "Relation",
    "RelationProfile",
    "Schema", "Selection", "Subject", "SubjectKind",
    "SubjectView", "Udf", "VARCHAR", "assignee_authorized",
    "authorized_assignees",
    "active_token", "check_assignee", "check_relation", "chosen_schemes",
    "cluster_encrypted_attributes", "compute_candidates", "equals",
    "establish_keys", "infer_plaintext_requirements", "minimally_extend",
    "minimum_required_view", "minimum_view_profiles",
    "relation_authorized", "select_scheme", "token_scope",
    "user_can_receive_result",
    "value_equals", "verify_assignment",
]
