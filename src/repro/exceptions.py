"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to discriminate the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A relation schema is malformed or attributes clash across relations."""


class AuthorizationError(ReproError):
    """An authorization rule is malformed (e.g., overlapping P and E sets)."""


class ProfileError(ReproError):
    """A profile operation was applied to incompatible inputs."""


class PlanError(ReproError):
    """A query plan is structurally invalid."""


class OperationRequirementError(PlanError):
    """An operator references attributes that its operand cannot provide."""


class UnauthorizedError(ReproError):
    """A subject attempted to access a relation it is not authorized for."""

    def __init__(self, message: str, *, subject: str | None = None,
                 violations: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.subject = subject
        self.violations = violations


class NoCandidateError(ReproError):
    """No subject is a candidate for some operation of the plan."""

    def __init__(self, message: str, *, node: object | None = None) -> None:
        super().__init__(message)
        self.node = node


class KeyManagementError(ReproError):
    """Key establishment or distribution violated its constraints."""


class DispatchError(ReproError):
    """Sub-query dispatch failed (bad envelope, missing key, tampering)."""


class ProviderFaultError(DispatchError):
    """A provider failed while executing a fragment (base class).

    Carries the failing ``subject`` so retry/failover layers can feed
    health state and pick replacement assignees.
    """

    def __init__(self, message: str, *, subject: str | None = None) -> None:
        super().__init__(message)
        self.subject = subject


class TransientProviderError(ProviderFaultError):
    """A retryable provider failure (timeout, dropped message, overload).

    The only failure the runtime may retry: authorization violations and
    envelope tampering are never classified as transient.
    """


class ProviderDeadError(ProviderFaultError):
    """A provider is permanently gone; retrying it is pointless."""


class ProviderUnavailableError(ProviderFaultError):
    """A fragment lost its provider and no in-place takeover succeeded.

    Raised by the runtime after retries and fragment-level failover are
    exhausted; the service layer catches it to re-plan over the
    remaining healthy subjects.  ``excluded`` names every subject that
    was tried and failed.
    """

    def __init__(self, message: str, *, subject: str | None = None,
                 fragment_id: str | None = None,
                 excluded: frozenset[str] = frozenset(),
                 trace: object | None = None) -> None:
        super().__init__(message, subject=subject)
        self.fragment_id = fragment_id
        self.excluded = excluded
        self.trace = trace


class UnrecoverableAssignmentError(NoCandidateError):
    """No authorized candidate remains for some operation of the plan.

    The terminal failover outcome: raised only after a re-plan over the
    healthy subject pool has failed to produce an assignment that passes
    ``verify_assignment``.
    """


class QueryAbortedError(ReproError):
    """A query stopped before completion (base for deadline/cancel).

    ``where`` names the cooperative checkpoint that observed the abort
    (see :mod:`repro.core.budget` for the checkpoint contract).
    ``trace`` carries the partial
    :class:`~repro.distributed.runtime.ExecutionTrace` of whatever ran
    before the abort when the query was already executing (``None``
    when it never reached the runtime), attached by the layer that
    owns the trace as the abort unwinds.
    """

    def __init__(self, message: str, *, where: str = "",
                 trace: object | None = None) -> None:
        super().__init__(message)
        self.where = where
        self.trace = trace


class DeadlineExceededError(QueryAbortedError):
    """A query's end-to-end deadline expired before it completed.

    Raised at the first cooperative checkpoint past the deadline —
    queue dequeue, planning, a fragment boundary, a retry iteration, a
    failover tier, or a parallel-map chunk boundary — never mid-chunk.
    """

    def __init__(self, message: str, *, where: str = "",
                 trace: object | None = None,
                 deadline_seconds: float | None = None,
                 elapsed_seconds: float | None = None) -> None:
        super().__init__(message, where=where, trace=trace)
        self.deadline_seconds = deadline_seconds
        self.elapsed_seconds = elapsed_seconds


class QueryCancelledError(QueryAbortedError):
    """The client cancelled the query; it unwound at a checkpoint."""

    def __init__(self, message: str, *, where: str = "",
                 trace: object | None = None,
                 reason: str | None = None) -> None:
        super().__init__(message, where=where, trace=trace)
        self.reason = reason


class CostCeilingExceededError(QueryAbortedError):
    """The §7-costed plan exceeds the query budget's cost ceiling.

    Raised after planning, before any key material is generated or a
    single fragment is dispatched: the assignment search already
    produced the exact cost, so an over-budget query is refused at the
    cheapest possible point.
    """

    def __init__(self, message: str, *, where: str = "planning",
                 cost_usd: float | None = None,
                 ceiling_usd: float | None = None) -> None:
        super().__init__(message, where=where)
        self.cost_usd = cost_usd
        self.ceiling_usd = ceiling_usd


class GatewayError(ReproError):
    """Base class for multi-tenant gateway failures."""


class AdmissionRejected(GatewayError):
    """A tenant's queue is full; the query was refused before planning.

    Carries the ``tenant`` and the configured ``queue_depth`` so callers
    can implement client-side backoff.  Rejection is explicit and
    load-shedding is lossless: a query is either admitted (and will
    produce an outcome or an error) or rejected with this exception —
    never silently dropped.
    """

    def __init__(self, message: str, *, tenant: str,
                 queue_depth: int) -> None:
        super().__init__(message)
        self.tenant = tenant
        self.queue_depth = queue_depth


class QuotaExceeded(GatewayError):
    """A tenant is out of rate tokens or credit; rejected pre-planning.

    ``reason`` is ``"rate"`` (token bucket empty) or ``"credits"``
    (credit account exhausted).  ``spent_usd`` is the tenant's metered
    spend so far; ``retry_after_seconds`` is the token-bucket refill
    time for rate rejections (``None`` for credit exhaustion — credit
    comes back only via a deposit, not by waiting).
    """

    def __init__(self, message: str, *, tenant: str, reason: str,
                 spent_usd: float,
                 retry_after_seconds: float | None = None) -> None:
        super().__init__(message)
        self.tenant = tenant
        self.reason = reason
        self.spent_usd = spent_usd
        self.retry_after_seconds = retry_after_seconds


class SheddedError(GatewayError):
    """The gateway predicted the query would blow its budget and shed it.

    Raised at :meth:`~repro.gateway.Gateway.submit`, before the query
    is queued (and therefore before any planning): the admission
    predictor — per-SQL latency/cost EWMAs backed by the gateway's
    query-latency histograms — concluded the query could not finish
    inside its deadline (``reason="predicted_deadline"``) or under its
    cost ceiling (``reason="predicted_cost"``).  ``retry_after_seconds``
    estimates when the standing backlog will have drained enough for
    the prediction to clear (``None`` when waiting cannot help, e.g. a
    cost-ceiling shed).
    """

    def __init__(self, message: str, *, tenant: str, reason: str,
                 predicted_seconds: float | None = None,
                 remaining_seconds: float | None = None,
                 retry_after_seconds: float | None = None) -> None:
        super().__init__(message)
        self.tenant = tenant
        self.reason = reason
        self.predicted_seconds = predicted_seconds
        self.remaining_seconds = remaining_seconds
        self.retry_after_seconds = retry_after_seconds


class SqlError(ReproError):
    """Base class for SQL front-end errors."""


class SqlSyntaxError(SqlError):
    """The SQL text could not be tokenized or parsed."""

    def __init__(self, message: str, *, line: int = 0, column: int = 0) -> None:
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class SqlAnalysisError(SqlError):
    """The SQL parsed but references unknown relations or attributes."""


class SqlUnsupportedError(SqlError):
    """The SQL is well formed but uses a construct the front end does not
    implement, and refuses rather than evaluate it as something else."""


class ExecutionError(ReproError):
    """The in-memory engine failed to evaluate a plan."""


class CryptoError(ReproError):
    """An encryption primitive was misused (wrong key, corrupt ciphertext)."""


class EstimationError(ReproError):
    """Cost or cardinality estimation failed for a plan node."""
