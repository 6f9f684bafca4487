"""End-to-end workload execution service.

The ROADMAP's north-star workload — the same queries, from many users,
against a stable policy — pays the whole §6 pipeline per request when
every caller hand-wires parse → authorize → extend → dispatch → execute.
:class:`QueryService` owns the long-lived state the pipeline can share
across queries and drives SQL text through it end to end:

* a **plan cache** (via :func:`repro.sql.planner.plan_query`'s ``cache``)
  returning identity-stable plans for repeated SQL text;
* the delta-reconciled
  :class:`~repro.core.plancache.AssignmentCache` memoising full
  assignment results keyed by the plan object the plan cache interned
  (a plan that leaves the plan cache re-parses into a new object, which
  misses; its old entry is unreachable and ages out of the LRU), and
  which policy churn maintains surgically instead of flushing;
* a cross-query :class:`~repro.core.edgecost.EdgeTableCache` sharing
  decomposed DP edge tables between distinct queries;
* the **distributed key material** and **dispatch plan** of each
  assignment, built once and kept on the assignment itself
  (``AssignmentResult.derived``), so repeated queries stop paying
  Paillier/symmetric keygen and fragment rendering, and an assignment
  that leaves the cache takes them with it;
* one persistent :class:`~repro.distributed.DistributedRuntime` whose
  per-subject RSA keypairs are generated once and whose fragment cache
  — the runtime's only result cache, held per dispatch plan —
  reconciles against the policy's delta journal.

Each :class:`QueryOutcome` carries the reconcile activity its query
observed (assignment and fragment entries kept/evicted/flushed), so
churn behaviour is visible per request, not just in aggregate.

:class:`WorkloadSession` is the per-user view: it fixes the querying
user, runs SQL, and accumulates the session's cache-hit statistics.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.assignment import AssignmentResult, assign
from repro.core.authorization import Policy, Subject
from repro.core.budget import CancellationToken, QueryBudget
from repro.core.cache import LRU
from repro.core.dispatch import DispatchPlan, dispatch
from repro.core.edgecost import EdgeTableCache
from repro.core.plancache import AssignmentCache
from repro.core.schema import Schema
from repro.core.visibility import verify_assignment
from repro.cost.pricing import PriceList
from repro.crypto.keymanager import DistributedKeys
from repro.distributed import build_runtime, generate_subject_keys
from repro.distributed.faults import FaultInjector
from repro.distributed.runtime import ExecutionTrace, FailoverEvent
from repro.engine.executor import UdfCallable
from repro.engine.table import Table
from repro.exceptions import (
    CostCeilingExceededError,
    DispatchError,
    NoCandidateError,
    ProviderUnavailableError,
    QueryAbortedError,
    UnauthorizedError,
    UnrecoverableAssignmentError,
)
from repro.sql.planner import plan_query

#: Entries kept in the plan cache and in the assignment cache.
_MEMO_LIMIT = 256

#: Most recent outcomes a :class:`WorkloadSession` retains (stats cover
#: every query regardless; full results must not pin unbounded memory).
_SESSION_OUTCOME_LIMIT = 128


@dataclass
class QueryOutcome:
    """One executed query: its result plus the per-query trace.

    ``trace`` covers every run of the query — the primary run and any
    standby or re-plan re-run after a lost provider, failed runs
    included — and is the one record of what moved: ``retries`` and
    ``failovers`` read it, nothing is summed beside it.
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
    #: Reconcile activity this query observed across the delta-aware
    #: caches (assignment/fragment entries kept, evicted or flushed),
    #: as counter increments.  Empty
    #: when the policy did not change between this query and the
    #: previous one.
    reconcile: dict[str, int] = field(default_factory=dict)
    #: Whether the query was re-run on a warm §6 standby plan.
    standby_used: bool = False
    #: Whether the query was re-planned from scratch over the healthy
    #: subject pool.
    replanned: bool = False
    #: Latency attributable to recovery (retries excluded): in-place
    #: failover time plus standby/re-plan repair and re-run time.
    failover_seconds: float = 0.0
    #: The budget the query ran under (None = unbudgeted).
    budget: QueryBudget | None = None
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
        """Whether any recovery path ran (takeover, standby, re-plan)."""
        return bool(self.failovers) or self.standby_used or self.replanned

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
            mode = ("replanned" if self.replanned
                    else "standby" if self.standby_used else "takeover")
            recovery = (f" failover[{mode}"
                        + (f" {moves}" if moves else "")
                        + f" +{self.failover_seconds * 1000:.1f}ms]")
        budget_note = ""
        if self.budget is not None \
                and self.budget.deadline_seconds is not None \
                and self.budget_remaining_seconds is not None:
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


class QueryService:
    """Long-lived front end running SQL workloads across providers.

    Parameters mirror the hand-wired pipeline: a schema, a policy, the
    participating subjects, the relation owners, and the authorities'
    stored tables.  Prices are
    :meth:`~repro.cost.pricing.PriceList.from_subjects`, and each user's
    plan is priced on the §7 network from that user's own seat (the slow
    client link follows whoever is querying).
    ``workers`` sizes the multicore data plane: that many processes,
    shared by every provider executor in the runtime, run the
    column-crypto kernels (``0``, the default, keeps them inline).  See
    ``examples/workload_service.py`` for a complete walkthrough and
    ``python -m repro workload`` for a runnable multi-user demo.
    """

    def __init__(self, schema: Schema, policy: Policy,
                 subjects: tuple[Subject, ...] | list[Subject],
                 owners: Mapping[str, str],
                 authority_tables: Mapping[str, Mapping[str, Table]],
                 user: str = "U",
                 udfs: Mapping[str, UdfCallable] | None = None,
                 clock=None, sleeper=None,
                 fault_injector: FaultInjector | None = None,
                 workers: int = 0,
                 ) -> None:
        self.schema = schema
        self.policy = policy
        self.subjects = tuple(subjects)
        self.subject_names = tuple(s.name for s in self.subjects)
        self.owners = dict(owners)
        self.user = user
        self.prices = PriceList.from_subjects(self.subjects)
        #: The one clock of a query: its token, ``wall_seconds`` and
        #: ``failover_seconds`` are read here, the runtime's failover
        #: events, breaker and backoff and the gateway's token, queue
        #: wait, rate buckets and ledger on the same callable, so what
        #: is added or compared is always on one time base.
        self.clock = clock or time.monotonic
        self.assignment_cache = AssignmentCache(maxsize=_MEMO_LIMIT)
        #: Cross-query DP edge tables; a receiver row is rebuilt when
        #: the subject's view no longer matches the one it was built for.
        self.edge_cache = EdgeTableCache()
        # Per-subject RSA keypairs are generated exactly once, here.
        self.rsa_keys = generate_subject_keys(list(self.subjects))
        self.runtime = build_runtime(
            policy, list(self.subjects), authority_tables, user,
            udfs=udfs, rsa_keys=self.rsa_keys,
            clock=self.clock, sleeper=sleeper,
            fault_injector=fault_injector, workers=workers,
        )
        #: SQL text → identity-stable plan; see plan_query.
        self._plan_cache = LRU(_MEMO_LIMIT)
        self._lock = threading.Lock()
        self.total_stats = SessionStats()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(self, sql: str, user: str | None = None, *,
                budget: QueryBudget | None = None,
                token: CancellationToken | None = None) -> QueryOutcome:
        """Run one SQL query end to end for ``user``.

        ``budget`` bounds the query end to end (a fresh
        :class:`~repro.core.budget.CancellationToken` is minted for it
        on the service's clock); pass ``token`` instead to share an
        existing countdown — e.g. the gateway's, whose deadline started
        at submission so queue wait already drew from it — or to allow
        client-side ``cancel()``.  The cost ceiling is enforced right
        after planning, against the assignment's exact §7 cost, before
        key generation or dispatch
        (:class:`~repro.exceptions.CostCeilingExceededError`); deadline
        expiry and cancellation unwind from the nearest cooperative
        checkpoint as
        :class:`~repro.exceptions.DeadlineExceededError` /
        :class:`~repro.exceptions.QueryCancelledError`.

        Raises :class:`~repro.exceptions.UnauthorizedError` when the
        user may not receive the result,
        :class:`~repro.exceptions.NoCandidateError` when some operation
        has no authorized assignee, and the usual SQL analysis errors.
        """
        user = user or self.user
        if token is None and budget is not None:
            token = CancellationToken(budget, clock=self.clock)
        started = self.clock()
        if token is not None:
            token.check("service:admitted")
        with self._lock:
            reconcile_before = self._reconcile_counters()
            plan_hits = self._plan_cache.info()["hits"]
            plan = plan_query(sql, self.schema, cache=self._plan_cache)
            plan_cached = self._plan_cache.info()["hits"] > plan_hits
            hits_before = self.assignment_cache.info()["hits"]
            outcome = assign(
                plan, self.policy, self.subject_names, self.prices,
                user=user, owners=self.owners,
                cache=self.assignment_cache,
                edge_cache=self.edge_cache,
            )
            assignment_cached = (
                self.assignment_cache.info()["hits"] > hits_before
            )
        if token is not None:
            token.check("service:planned")
            self._enforce_cost_ceiling(token, outcome)
        distributed, dispatch_plan, keys_reused = self._derived(outcome,
                                                                user)
        standby_used = replanned = False
        repair_seconds = 0.0
        try:
            result, trace = self.runtime.run(
                dispatch_plan, outcome.extended, outcome.keys, distributed,
                user=user, token=token,
            )
        except ProviderUnavailableError as failure:
            repair_started = self.clock()
            outcome, result, trace, standby_used = self._repair_and_rerun(
                plan, outcome, failure, user, token)
            replanned = not standby_used
            repair_seconds = self.clock() - repair_started
        wall = self.clock() - started
        reconcile_after = self._reconcile_counters()
        reconcile = {
            key: reconcile_after[key] - reconcile_before[key]
            for key in reconcile_after
            if reconcile_after[key] != reconcile_before[key]
        }
        executed = QueryOutcome(
            sql=sql,
            user=user,
            result=result,
            trace=trace,
            wall_seconds=wall,
            cost_usd=outcome.cost.total_usd,
            plan_cached=plan_cached,
            assignment_cached=assignment_cached,
            keys_reused=keys_reused,
            assignment=outcome,
            reconcile=reconcile,
            standby_used=standby_used,
            replanned=replanned,
            failover_seconds=(repair_seconds
                              + sum(e.seconds for e in trace.failovers)),
            budget=token.budget if token is not None else None,
            budget_remaining_seconds=(token.remaining_seconds()
                                      if token is not None else None),
        )
        with self._lock:
            self.total_stats.observe(executed)
        return executed

    def session(self, user: str | None = None) -> "WorkloadSession":
        """A per-user session over this service's shared caches."""
        return WorkloadSession(self, user or self.user)

    # ------------------------------------------------------------------
    # Failover repair
    # ------------------------------------------------------------------
    def _repair_and_rerun(
        self, plan, primary: AssignmentResult,
        failure: ProviderUnavailableError, user: str,
        token: CancellationToken | None = None,
    ) -> tuple[AssignmentResult, Table, ExecutionTrace, bool]:
        """Recover a query whose fragment lost every in-place candidate.

        Two escalation tiers beyond the runtime's fragment takeover:
        first the warm §6 standby plans kept on the primary assignment
        (``portfolio``) — a standby that avoids every unavailable
        subject and still passes :func:`verify_assignment` under the
        *current* policy is dispatched as-is; otherwise a full re-plan
        over the remaining healthy subjects.  Each re-run that loses yet
        another provider widens the unavailable set and tries again, so
        :class:`UnrecoverableAssignmentError` is raised only when no
        authorized candidate remains (or the lost subject is a data
        authority, whose stored relations cannot move).

        Recovery draws from the same query budget as the primary run:
        each tier starts with a checkpoint (an expired query is not
        worth re-planning) and a repaired assignment is re-gated against
        the cost ceiling before dispatch — failover may not buy a result
        the budget already refused.

        The failed run's trace becomes the query's record: every re-run,
        failed or not, is folded into it, and an abort on the way out
        carries it as its ``trace``.
        """
        record: ExecutionTrace = failure.trace
        unavailable = set(failure.excluded)
        try:
            while True:
                if token is not None:
                    token.check("service:failover")
                unavailable |= self.runtime.health.unavailable_subjects()
                if failure.subject in set(self.owners.values()):
                    raise UnrecoverableAssignmentError(
                        f"data authority {failure.subject!r} is "
                        "unavailable and its stored relations cannot be "
                        "reassigned") from failure
                repaired, standby_used = self._repaired_for(
                    plan, primary, unavailable, user)
                if token is not None:
                    self._enforce_cost_ceiling(token, repaired,
                                               where="failover")
                distributed, dispatch_plan, _ = self._derived(repaired,
                                                              user)
                try:
                    result, trace = self.runtime.run(
                        dispatch_plan, repaired.extended, repaired.keys,
                        distributed, user=user, token=token,
                    )
                except ProviderUnavailableError as again:
                    # Another provider died during the re-run: widen the
                    # exclusion set and escalate once more.  The subject
                    # pool strictly shrinks, so this terminates.
                    unavailable |= set(again.excluded)
                    record.absorb(again.trace)
                    failure = again
                    continue
                record.absorb(trace)
                return repaired, result, record, standby_used
        except QueryAbortedError as abort:
            if abort.trace is not None:
                record.absorb(abort.trace)
            abort.trace = record
            raise

    @staticmethod
    def _enforce_cost_ceiling(token: CancellationToken,
                              outcome: AssignmentResult,
                              where: str = "planning") -> None:
        """Refuse an assignment whose exact §7 cost exceeds the ceiling.

        Runs right after planning — the cheapest point with an exact
        cost in hand, before key generation or any dispatch.
        """
        ceiling = token.budget.cost_ceiling_usd
        if ceiling is None:
            return
        cost = outcome.cost.total_usd
        if cost > ceiling:
            raise CostCeilingExceededError(
                f"planned query costs ${cost:.6f}, over the "
                f"${ceiling:.6f} ceiling", where=where,
                cost_usd=cost, ceiling_usd=ceiling)

    def _repaired_for(self, plan, primary: AssignmentResult,
                      unavailable: set[str], user: str,
                      ) -> tuple[AssignmentResult, bool]:
        """An assignment avoiding ``unavailable``, and whether it is a
        standby: the cheapest warm standby if one qualifies, else a
        re-plan over the remaining subjects.

        Standbys were verified when planned; the policy may have changed
        since, so each is re-gated with :func:`verify_assignment` before
        use — a stale standby is skipped, never dispatched.
        """
        for standby in primary.portfolio:
            used = set(standby.extended.assignment.values())
            if used & unavailable:
                continue
            try:
                verify_assignment(standby.extended.plan, self.policy,
                                  standby.extended.assignment)
            except UnauthorizedError:
                continue
            return standby, True
        available = [name for name in self.subject_names
                     if name not in unavailable]
        try:
            with self._lock:
                repaired = assign(
                    plan, self.policy, available, self.prices,
                    user=user, owners=self.owners,
                    cache=self.assignment_cache,
                    edge_cache=self.edge_cache,
                )
        except (NoCandidateError, UnauthorizedError) as exc:
            raise UnrecoverableAssignmentError(
                "no authorized candidate remains for the query "
                f"after losing {sorted(unavailable)}"
            ) from exc
        # Defense in depth: the repaired plan must re-verify as an
        # authorized assignment before anything is dispatched.
        verify_assignment(repaired.extended.plan, self.policy,
                          repaired.extended.assignment)
        return repaired, False

    # ------------------------------------------------------------------
    # Shared-state management
    # ------------------------------------------------------------------
    def refresh_tables(
        self, authority_tables: Mapping[str, Mapping[str, Table]],
    ) -> None:
        """Replace some authorities' stored tables and drop stale caches.

        Memoised fragment results were computed from the old tables, so
        data changes must go through here (or call
        ``runtime.invalidate_caches()`` after mutating a node's
        ``tables`` directly).
        """
        # Validate every name before mutating anything: a partial update
        # that bails mid-way would leave refreshed tables served from
        # stale caches.
        for subject in authority_tables:
            if subject not in self.runtime.nodes:
                raise DispatchError(
                    f"no runtime node for subject {subject!r}")
        try:
            for subject, tables in authority_tables.items():
                self.runtime.nodes[subject].tables = dict(tables)
        finally:
            self.runtime.invalidate_caches()

    def cache_info(self) -> dict[str, object]:
        """All cache counters: plans, assignments, edge tables, fragments."""
        info: dict[str, object] = {
            "plans": len(self._plan_cache),
            "plan_cache": self._plan_cache.info(),
            "assignment": self.assignment_cache.info(),
            "edge_tables": self.edge_cache.info(),
            # Read by benchmarks/e2e (engine.executor_cache_hit_ratio).
            "executor_hits": 0, "executor_misses": 0,
        }
        info.update(self.runtime.cache_info())
        return info

    def health_info(self) -> dict[str, dict[str, object]]:
        """Per-subject health snapshot (breaker state, EWMA, counters)."""
        return self.runtime.health_info()

    def describe(self) -> str:
        """Service-level summary across every query it has run."""
        info = self.cache_info()
        caches = [
            ("plans", info["plan_cache"]),
            ("assignments", info["assignment"]),
            ("edge tables", info["edge_tables"]),
        ]
        traffic = [f"{label} {c['size']} {c['hits']}h/{c['misses']}m"
                   for label, c in caches]
        traffic.append(
            f"fragment results {info['fragment_entries']} "
            f"{info['fragment_hits']}h/{info['fragment_misses']}m")
        return (f"service totals: {self.total_stats.describe()}\n"
                f"caches: {'; '.join(traffic)}")

    # ------------------------------------------------------------------
    # Per-assignment artifacts
    # ------------------------------------------------------------------
    def _reconcile_counters(self) -> dict[str, int]:
        """Snapshot of every delta-reconcile counter, flat-keyed.

        ``execute`` diffs two snapshots to attribute reconcile activity
        to one query.  Under concurrent queries increments may land in a
        neighbour's window — the counters are monotone, so totals stay
        exact even when per-query attribution is approximate.
        """
        counters = {
            f"assignment_{key[len('reconcile_'):]}": value
            for key, value in self.assignment_cache.info().items()
            if key.startswith("reconcile_")
        }
        counters.update(self.runtime.fragments.reconciler.info("fragment_"))
        return counters

    def _derived(self, outcome: AssignmentResult, user: str,
                 ) -> tuple[DistributedKeys, DispatchPlan, bool]:
        """``outcome``'s key material and dispatch plan, built once.

        Both ride in the assignment's own ``derived`` cell, so repeated
        queries redistribute the same Paillier/symmetric material and
        fragment texts, and nothing outlives the assignment.  Key generation
        (Paillier — the most expensive planning step) and fragment
        rendering run outside the service lock so cold queries from
        different users don't serialize on them; the cell is filled
        compare-and-set under it.  The flag is True only when the first
        look found the cell filled: a caller that loses the fill race
        is handed the winner's pair but still paid for its own, so it
        must not report reuse.
        """
        with self._lock:
            if outcome.derived:
                return (*outcome.derived[0], True)
        built = (DistributedKeys.from_assignment(outcome.keys),
                 dispatch(outcome.extended, outcome.keys,
                          owners=self.owners, user=user))
        with self._lock:
            if not outcome.derived:
                outcome.derived.append(built)
            return (*outcome.derived[0], False)


@dataclass
class WorkloadSession:
    """One user's stream of queries over a shared :class:`QueryService`.

    ``outcomes`` keeps only the most recent
    :data:`_SESSION_OUTCOME_LIMIT` queries — each outcome pins its full
    result table and assignment, which must not grow without bound over
    a long-lived session; ``stats`` aggregates every query ever run.
    """

    service: QueryService
    user: str
    outcomes: list[QueryOutcome] = field(default_factory=list)
    stats: SessionStats = field(default_factory=SessionStats)

    def run(self, sql: str, *,
            budget: QueryBudget | None = None,
            token: CancellationToken | None = None) -> QueryOutcome:
        """Execute ``sql`` as this session's user and record the stats."""
        outcome = self.service.execute(sql, user=self.user,
                                       budget=budget, token=token)
        self.outcomes.append(outcome)
        del self.outcomes[:-_SESSION_OUTCOME_LIMIT]
        self.stats.observe(outcome)
        return outcome

    def describe(self) -> str:
        return f"session {self.user}: {self.stats.describe()}"
