"""What one query run by :class:`~repro.service.QueryService` returns
(:class:`QueryOutcome`) and what a stream of them adds up to
(:class:`SessionStats`)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.assignment import AssignmentResult
from repro.core.budget import QueryBudget
from repro.distributed.trace import ExecutionTrace, FailoverEvent
from repro.engine.table import Table


@dataclass
class QueryOutcome:
    """One executed query: its result plus the per-query trace.

    ``trace`` covers every run of the query — the primary run and any
    re-plan re-run after a lost provider, failed runs included — and is
    the one record of what moved: ``retries`` and ``failovers`` read
    it, nothing is summed beside it.
    """

    sql: str
    user: str
    result: Table
    trace: ExecutionTrace
    wall_seconds: float
    cost_usd: float
    plan_cached: bool
    assignment_cached: bool
    keys_reused: bool
    assignment: AssignmentResult
    #: Reconcile activity this query observed (assignment entries kept,
    #: evicted, flushed or adopted; fragment entries kept, evicted or
    #: flushed), as counter increments; empty if the policy held still.
    reconcile: dict[str, int] = field(default_factory=dict)
    #: Whether the query was re-planned from scratch over the healthy
    #: subject pool.
    replanned: bool = False
    #: Latency attributable to recovery (retries excluded): in-place
    #: failover time plus re-plan repair and re-run time.
    failover_seconds: float = 0.0
    #: The budget the query ran under (unlimited unless one was given).
    budget: QueryBudget = QueryBudget()
    #: Seconds left on the deadline when the result was delivered
    #: (None = no deadline).
    budget_remaining_seconds: float | None = None

    @property
    def retries(self) -> int:
        """Transient-fault retries absorbed without failover."""
        return self.trace.retries

    @property
    def failovers(self) -> tuple[FailoverEvent, ...]:
        """Mid-query fragment re-dispatches, each carrying the repaired
        assignment that :func:`verify_assignment` approved."""
        return tuple(self.trace.failovers)

    @property
    def failed_over(self) -> bool:
        """Whether any recovery path ran (takeover, re-plan)."""
        return bool(self.failovers) or self.replanned

    def describe(self) -> str:
        """One human-readable line per query (the workload CLI output)."""
        flags = "".join((
            "p" if self.plan_cached else "-",
            "a" if self.assignment_cached else "-",
            "k" if self.keys_reused else "-",
        ))
        churn = ""
        if self.reconcile:
            inner = ", ".join(f"{key}={value}" for key, value
                              in sorted(self.reconcile.items()))
            churn = f" reconcile[{inner}]"
        recovery = ""
        if self.failed_over:
            moves = ", ".join(
                f"{e.fragment_id}:{e.failed_subject}->{e.replacement}"
                for e in self.failovers)
            mode = "replanned" if self.replanned else "takeover"
            recovery = (f" failover[{mode}"
                        + (f" {moves}" if moves else "")
                        + f" +{self.failover_seconds * 1000:.1f}ms]")
        budget_note = ""
        if self.budget_remaining_seconds is not None:
            budget_note = (
                f" budget[{self.budget_remaining_seconds * 1000:.0f}ms "
                f"left of {self.budget.deadline_seconds * 1000:.0f}ms]")
        return (
            f"{self.user}: {len(self.result)} rows in "
            f"{self.wall_seconds * 1000:.1f} ms "
            f"[{len(self.trace.fragments_run)} fragments, "
            f"{self.trace.fragment_cache_hits} cached, "
            f"caches={flags}, ${self.cost_usd:.6f}]"
            f"{churn}{recovery}{budget_note}"
        )


@dataclass
class SessionStats:
    """Aggregated counters for one :class:`WorkloadSession`."""

    queries: int = 0
    wall_seconds: float = 0.0
    rows_returned: int = 0
    plan_cache_hits: int = 0
    assignment_cache_hits: int = 0
    fragment_cache_hits: int = 0
    fragments_run: int = 0

    def observe(self, outcome: QueryOutcome) -> None:
        self.queries += 1
        self.wall_seconds += outcome.wall_seconds
        self.rows_returned += len(outcome.result)
        self.plan_cache_hits += int(outcome.plan_cached)
        self.assignment_cache_hits += int(outcome.assignment_cached)
        self.fragment_cache_hits += outcome.trace.fragment_cache_hits
        self.fragments_run += len(outcome.trace.fragments_run)

    def describe(self) -> str:
        return (
            f"{self.queries} queries, {self.rows_returned} rows, "
            f"{self.wall_seconds * 1000:.1f} ms total; cache hits: "
            f"{self.plan_cache_hits} plan, "
            f"{self.assignment_cache_hits} assignment, "
            f"{self.fragment_cache_hits}/{self.fragments_run} fragments"
        )
