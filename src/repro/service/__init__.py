"""Workload service layer: SQL in, authorized distributed results out.

:class:`QueryService` owns the state the §6 pipeline can share across
queries (parser plans, assignment cache, per-subject RSA keys, the
runtime's fragment cache, distributed key material) and drives each SQL
query through parse → authorize/assign → minimally-extend → dispatch →
concurrent runtime; :class:`WorkloadSession` scopes a stream of such
queries to one user.
"""

from repro.core.budget import CancellationToken, QueryBudget
from repro.service.outcome import QueryOutcome, SessionStats
from repro.service.workload import QueryService, WorkloadSession

__all__ = [
    "CancellationToken", "QueryBudget", "QueryOutcome", "QueryService",
    "SessionStats", "WorkloadSession",
]
