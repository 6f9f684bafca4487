"""The multi-tenant serving gateway in front of :class:`QueryService`.

:class:`QueryService` runs one query at a time per caller;
:class:`Gateway` turns it into a production front-end serving many
tenants concurrently under explicit resource arbitration:

* **admission control** — a bounded in-flight window with per-tenant
  bounded queues drained by weighted fair round-robin
  (:mod:`repro.gateway.admission`); overflow rejects with
  :class:`~repro.exceptions.AdmissionRejected`, never drops silently;
* **quotas & metering** — per-tenant token-bucket rate limits and
  prepaid credit accounts (:mod:`repro.gateway.quotas`), debited from
  each :class:`~repro.service.QueryOutcome`'s §7-costed trace and
  journaled in a :class:`~repro.cost.metering.Ledger`.  Quota-exhausted
  tenants are rejected at :meth:`Gateway.submit`, before a single
  planning cycle is spent on them;
* **observability** — :meth:`Gateway.metrics_text` (and ``python -m
  repro metrics`` on the CLI) renders Prometheus text as a view over
  records: a tenant's completed, failed, cancelled and deadline counts
  and its spend are the ledger's lifetime totals, queue depth and in
  flight are the admission controller's, breaker and cache series are
  the service's ``health_info()`` and ``cache_info()``, and fragment
  latencies are the ``executions`` of each query's
  :class:`~repro.distributed.runtime.ExecutionTrace` (the outcome's,
  or the one an aborted query's error carries).  The gateway itself
  keeps only what no other layer records: the submit-time counts
  (submitted, rejected, shed predicted) and four histograms;
* **budgets & graceful degradation** — each query runs under a
  :class:`~repro.core.budget.QueryBudget` (the caller's request merged
  over the tenant's defaults) carried in a
  :class:`~repro.core.budget.CancellationToken` whose deadline starts
  at submission, so queue wait draws from it.  Admission consults a
  :class:`~repro.gateway.admission.LatencyPredictor` (per-SQL EWMAs,
  falling back to the per-tenant latency histogram) and sheds work
  predicted to blow its deadline or cost ceiling with
  :class:`~repro.exceptions.SheddedError` *before it is queued*;
  queued entries whose deadline passes before dispatch are settled at
  dequeue — including during a draining :meth:`Gateway.close` — without
  a single planning cycle.

A *tenant* is a billing/QoS identity: its configured ``user`` (the
authorization identity the policy knows) is what
:meth:`QueryService.execute` enforces.  Several tenants may share one
user while keeping separate queues, quotas and ledgers.

Execution model: ``max_inflight`` daemon workers block on the
admission controller, each executing one admitted query at a time
through the shared service; :meth:`Gateway.submit` returns a
:class:`concurrent.futures.Future` resolving to the
:class:`~repro.service.QueryOutcome` (or raising the query's error).
Time is the service's ``clock``: the token, queue wait, rate buckets
and ledger entries are on the same time base as the service's
``wall_seconds`` and the runtime's deadline checks; execution itself is
as concurrent as the service allows.
"""

from __future__ import annotations

import threading
from collections import Counter
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.budget import CancellationToken, QueryBudget
from repro.cost.metering import CreditAccount, Ledger
from repro.exceptions import (
    AdmissionRejected,
    DeadlineExceededError,
    GatewayError,
    QueryCancelledError,
    QuotaExceeded,
    SheddedError,
)
from repro.gateway.admission import (
    DEFAULT_QUEUE_DEPTH,
    AdmissionController,
    LatencyPredictor,
)
from repro.gateway.quotas import TenantQuota
from repro.obs.metrics import DEFAULT_FRACTION_BUCKETS, Histogram, render
from repro.service import QueryOutcome, QueryService

#: Query-latency quantile of the tenant's own histogram that stands in
#: for a run-time prediction when the per-SQL predictor has no signal.
_SHED_QUANTILE = 0.9

#: Breaker states as gauge values.
_BREAKER_STATES = {"closed": 0.0, "half_open": 1.0, "open": 2.0}


def _keyed(by_name: Mapping[str, object]) -> dict[tuple[str], object]:
    """Samples of a one-label family, from a mapping by label value."""
    return {(name,): value for name, value in by_name.items()}


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's admission, quota, and identity configuration.

    Attributes
    ----------
    name:
        The tenant identity (metrics label, ledger key).
    weight:
        Fair-queueing weight: under saturation the tenant receives a
        ``weight / Σ active weights`` share of dispatches.
    queue_depth:
        Queries queued beyond the in-flight window before
        :class:`AdmissionRejected`.
    rate_per_second / burst:
        Token-bucket rate limit (``None`` = unlimited rate).
    credits_usd:
        Prepaid credit (``None`` = unmetered); spend is debited from
        each outcome's costed trace.
    deadline_seconds / cost_ceiling_usd:
        Default per-query budget (``None`` = unbounded dimension).  A
        per-query budget passed to :meth:`Gateway.submit` overrides
        these field by field; the merged budget becomes the query's
        :class:`~repro.core.budget.CancellationToken`, counting from
        submission.
    user:
        The authorization identity queries run as (defaults to the
        service's constructing user).
    """

    name: str
    weight: int = 1
    queue_depth: int = DEFAULT_QUEUE_DEPTH
    rate_per_second: float | None = None
    burst: float = 1.0
    credits_usd: float | None = None
    deadline_seconds: float | None = None
    cost_ceiling_usd: float | None = None
    user: str | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if not isinstance(self.weight, int) or self.weight < 1:
            raise ValueError(
                f"weight must be a positive integer, got {self.weight!r}")
        if not isinstance(self.queue_depth, int) or self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be a positive integer, "
                f"got {self.queue_depth!r}")
        # Same > 0 or None validation the budget itself applies.
        QueryBudget(deadline_seconds=self.deadline_seconds,
                    cost_ceiling_usd=self.cost_ceiling_usd)


class _Request:
    """One admitted query waiting for (or in) execution."""

    __slots__ = ("tenant", "sql", "user", "future", "enqueued_at",
                 "dispatch_sequence", "token")

    def __init__(self, tenant: str, sql: str, user: str,
                 enqueued_at: float, token: CancellationToken) -> None:
        self.tenant = tenant
        self.sql = sql
        self.user = user
        self.future: Future = Future()
        self.enqueued_at = enqueued_at
        self.dispatch_sequence: int | None = None
        self.token = token


class Gateway:
    """Multi-tenant admission/quota/metering front-end over one service."""

    def __init__(self, service: QueryService,
                 tenants: Iterable[TenantConfig], *,
                 max_inflight: int = 4) -> None:
        tenants = list(tenants)
        if not tenants:
            raise ValueError("a gateway needs at least one tenant")
        names = [config.name for config in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        self.service = service
        self.clock = service.clock
        self.tenants: Mapping[str, TenantConfig] = {
            config.name: config for config in tenants}
        self.ledger = Ledger()
        self._controller = AdmissionController(max_inflight)
        self._predictor = LatencyPredictor()
        self._quotas: dict[str, TenantQuota] = {}
        for config in tenants:
            self._controller.register(config.name, config.weight,
                                      config.queue_depth)
            self._quotas[config.name] = TenantQuota(
                config.name, rate_per_second=config.rate_per_second,
                burst=config.burst, credits_usd=config.credits_usd,
                deadline_seconds=config.deadline_seconds,
                cost_ceiling_usd=config.cost_ceiling_usd,
                clock=self.clock)
        #: What no other layer records: the submit-time counts, keyed
        #: ``("submitted", tenant)`` or ``(event, tenant, reason)``, and
        #: the histograms (fragment latency per subject on first use).
        self._lock = threading.Lock()
        self._events: Counter[tuple[str, ...]] = Counter()
        self._queue_wait = {name: Histogram() for name in self.tenants}
        self._query_seconds = {name: Histogram() for name in self.tenants}
        self._budget_fraction = {
            name: Histogram(DEFAULT_FRACTION_BUCKETS)
            for name in self.tenants}
        self._fragment_latency: dict[str, Histogram] = {}
        self._closed = False
        self._close_lock = threading.Lock()
        self._workers = [
            threading.Thread(target=self._worker, daemon=True,
                             name=f"gateway-worker-{index}")
            for index in range(max_inflight)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def metrics_text(self) -> str:
        """The gateway's metrics in Prometheus text exposition format.

        A view: each family is read now from the record that keeps it
        (the table in ``docs/operations.md``, "Metrics").
        """
        # The ledger before the events: a query is counted submitted
        # before it is ledgered, so no scrape ends more than it submitted.
        lifetime = self.ledger.lifetime()
        with self._lock:
            events = dict(self._events)
            fragments = dict(self._fragment_latency)
        counts: dict[str, dict[tuple[str, ...], float]] = {
            event: {} for event in (
                "submitted", "rejected", "shed_predicted", "completed",
                "failed", "cancelled", "deadline", "spent")}
        for (event, *labels), count in events.items():
            counts[event][tuple(labels)] = count
        for (tenant, status), (count, spend) in lifetime.items():
            # Shed at dequeue and out of deadline in flight are one series.
            ended = counts["deadline" if status == "shed" else status]
            ended[tenant,] = ended.get((tenant,), 0) + count
            if status == "completed":
                counts["spent"][tenant,] = spend
        health = self.service.health_info()
        cache = self.service.cache_info()
        assignment = cache["assignment"]
        tenant, subject, by_cache = ("tenant",), ("subject",), ("cache",)
        return render([
            ("repro_gateway_queries_submitted_total", "counter",
             "Queries offered to the gateway, admitted or not.",
             tenant, counts["submitted"]),
            ("repro_gateway_queries_completed_total", "counter",
             "Queries executed to a result.", tenant, counts["completed"]),
            ("repro_gateway_queries_failed_total", "counter",
             "Admitted queries whose execution raised or that "
             "close(drain=False) dropped from the queue.",
             tenant, counts["failed"]),
            ("repro_gateway_queries_rejected_total", "counter",
             "Queries rejected before planning, by reason "
             "(queue_full, rate, credits).",
             ("tenant", "reason"), counts["rejected"]),
            ("repro_gateway_queue_depth", "gauge",
             "Queries queued per tenant right now.", tenant,
             _keyed(self._controller.depths())),
            ("repro_gateway_inflight", "gauge",
             "Admitted queries currently executing.", (),
             {(): self._controller.inflight}),
            ("repro_gateway_queue_wait_seconds", "histogram",
             "Admission-to-dispatch wait.", tenant,
             _keyed(self._queue_wait)),
            ("repro_gateway_query_seconds", "histogram",
             "End-to-end execution time of admitted queries.", tenant,
             _keyed(self._query_seconds)),
            ("repro_gateway_credits_spent_usd_total", "counter",
             "Metered spend per tenant (sum of costed traces).",
             tenant, counts["spent"]),
            ("repro_gateway_deadline_exceeded_total", "counter",
             "Queries whose end-to-end deadline expired (at dequeue or "
             "mid-execution).", tenant, counts["deadline"]),
            ("repro_gateway_cancelled_total", "counter",
             "Queries cancelled by their client via the token.",
             tenant, counts["cancelled"]),
            ("repro_gateway_shed_predicted_total", "counter",
             "Queries shed at submit because the predictor expected them "
             "to blow their budget (predicted_deadline, predicted_cost).",
             ("tenant", "reason"), counts["shed_predicted"]),
            ("repro_gateway_budget_remaining_fraction", "histogram",
             "Fraction of the deadline budget left when a budgeted query "
             "delivered its result.", tenant,
             _keyed(self._budget_fraction)),
            ("repro_fragment_latency_seconds", "histogram",
             "Per-subject fragment execution time (query traces).",
             subject, _keyed(fragments)),
            ("repro_breaker_state", "gauge",
             "Circuit breaker per subject (0 closed, 1 half-open, "
             "2 open, 3 dead).", subject,
             {(name,): 3.0 if record["dead"]
              else _BREAKER_STATES[record["state"]]
              for name, record in health.items()}),
            ("repro_breaker_trips_total", "counter",
             "Circuit breaker trips per subject.", subject,
             {(name,): record["breaker_trips"]
              for name, record in health.items()}),
            ("repro_cache_hits_total", "counter",
             "Cache hits by cache (assignment).", by_cache,
             {("assignment",): assignment["hits"]}),
            ("repro_cache_misses_total", "counter",
             "Cache misses by cache (assignment).", by_cache,
             {("assignment",): assignment["misses"]}),
            ("repro_cache_entries", "gauge",
             "Resident entries by cache (plans, fragments, assignment).",
             by_cache, {("plans",): cache["plans"],
                        ("assignment",): assignment["size"],
                        ("fragments",): cache["fragment_entries"]}),
        ])

    def _count(self, *event: str) -> None:
        with self._lock:
            self._events[event] += 1

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, tenant: str, sql: str, *,
               budget: QueryBudget | None = None,
               token: CancellationToken | None = None) -> Future:
        """Offer one query; returns a Future of its ``QueryOutcome``.

        ``budget`` is merged over the tenant's defaults
        (:meth:`~repro.gateway.quotas.TenantQuota.budget_for`) and a
        :class:`~repro.core.budget.CancellationToken` is minted for the
        result — its deadline counts from *now*, so queue wait draws
        from it; with neither a budget nor tenant defaults the token is
        unlimited.  Pass ``token`` instead to keep a countdown that
        started earlier.  Either way the query's token is the returned
        future's ``cancellation_token``: its ``cancel()`` stops the
        query at its next checkpoint, queued or running.

        Raises — all *before* any planning work is spent —
        ``ValueError`` for an unknown tenant,
        :class:`~repro.exceptions.QuotaExceeded` when the tenant is out
        of credit or rate tokens,
        :class:`~repro.exceptions.SheddedError` when the latency/cost
        predictor concludes the query cannot meet its budget, and
        :class:`~repro.exceptions.AdmissionRejected` when its queue is
        full.
        """
        config = self.tenants.get(tenant)
        if config is None:
            raise ValueError(f"unknown tenant {tenant!r}; configured: "
                             f"{sorted(self.tenants)}")
        if self._closed:
            raise GatewayError("gateway is closed")
        self._count("submitted", tenant)
        quota = self._quotas[tenant]
        try:
            quota.check(self.ledger)
        except QuotaExceeded as refusal:
            self._count("rejected", tenant, refusal.reason)
            raise
        token = token or CancellationToken(quota.budget_for(budget),
                                           clock=self.clock)
        self._shed_if_predicted_over_budget(tenant, sql, token)
        request = _Request(tenant, sql, config.user or self.service.user,
                           self.clock(), token=token)
        try:
            self._controller.submit(tenant, request)
        except AdmissionRejected:
            self._count("rejected", tenant, "queue_full")
            raise
        request.future.cancellation_token = token
        return request.future

    def _shed_if_predicted_over_budget(
            self, tenant: str, sql: str, token: CancellationToken) -> None:
        """Refuse work the predictor expects to blow its budget.

        Deadline: the predicted run time (per-SQL EWMA, else the
        tenant's p90 query latency, :data:`_SHED_QUANTILE`) is scaled by
        the standing backlog relative to the in-flight window; if that
        exceeds the token's remaining budget the query is shed with a
        retry-after equal to the queue-wait component (by then the
        backlog estimate has drained).  Cost:
        the per-SQL cost EWMA against the ceiling, no retry-after —
        waiting cannot make a plan cheaper.  No signal → admit: cold
        starts must pass, and a wrong admit still dies cheaply at the
        dequeue/planning checkpoints.
        """
        remaining = token.remaining_seconds()
        if remaining is not None:
            run_seconds = self._predictor.predict_seconds(sql)
            if run_seconds is None:
                quantile = self._query_seconds[tenant].quantile(
                    _SHED_QUANTILE)
                if quantile > 0.0 and quantile != float("inf"):
                    run_seconds = quantile
            if run_seconds is not None:
                backlog_factor = 1.0 + (self._controller.backlog()
                                        / self._controller.max_inflight)
                predicted = run_seconds * backlog_factor
                if predicted > remaining:
                    self._count("shed_predicted", tenant,
                                "predicted_deadline")
                    raise SheddedError(
                        f"tenant {tenant!r}: predicted "
                        f"{predicted:.3f}s exceeds the {remaining:.3f}s "
                        f"remaining deadline budget; shed before "
                        f"queueing", tenant=tenant,
                        reason="predicted_deadline",
                        predicted_seconds=predicted,
                        remaining_seconds=remaining,
                        retry_after_seconds=max(
                            0.0, predicted - run_seconds))
        ceiling = token.budget.cost_ceiling_usd
        if ceiling is not None:
            cost = self._predictor.predict_cost(sql)
            if cost is not None and cost > ceiling:
                self._count("shed_predicted", tenant, "predicted_cost")
                raise SheddedError(
                    f"tenant {tenant!r}: predicted cost ${cost:.6f} "
                    f"exceeds the ${ceiling:.6f} ceiling; shed before "
                    f"queueing", tenant=tenant, reason="predicted_cost",
                    predicted_seconds=None, remaining_seconds=None,
                    retry_after_seconds=None)

    def execute(self, tenant: str, sql: str, *,
                budget: QueryBudget | None = None,
                token: CancellationToken | None = None) -> QueryOutcome:
        """Submit and block for the outcome (convenience wrapper)."""
        return self.submit(tenant, sql, budget=budget,
                           token=token).result()

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            acquired = self._controller.acquire()
            if acquired is None:
                return
            tenant, request, dispatch_sequence = acquired
            request.dispatch_sequence = dispatch_sequence
            self._queue_wait[tenant].observe(
                self.clock() - request.enqueued_at)
            try:
                self._execute_request(tenant, request)
            finally:
                self._controller.release()

    def _execute_request(self, tenant: str, request: _Request) -> None:
        quota = self._quotas[tenant]
        started = self.clock()
        token = request.token
        # Shed-at-dequeue: an entry that died in the queue (client
        # cancelled, or its deadline lapsed while it waited) is settled
        # here without spending a byte of planning.  This is also what
        # lets close(drain=True) flush a backlog of expired work instead
        # of executing it.
        try:
            token.check("gateway:dequeue")
        except QueryCancelledError as error:
            self._settle_failure(tenant, request, started, error,
                                 "cancelled")
            return
        except DeadlineExceededError as error:
            self._settle_failure(tenant, request, started, error, "shed")
            return
        try:
            outcome = self.service.execute(request.sql, user=request.user,
                                           token=token)
        except BaseException as error:  # noqa: BLE001 — relayed, not hidden
            if isinstance(error, QueryCancelledError):
                status = "cancelled"
            elif isinstance(error, DeadlineExceededError):
                status = "deadline"
            else:
                status = "failed"
            self._settle_failure(tenant, request, started, error, status)
            return
        quota.settle(outcome.cost_usd)
        self._read_fragment_latency(outcome.trace)
        self._query_seconds[tenant].observe(outcome.wall_seconds)
        self._predictor.observe(request.sql, outcome.wall_seconds,
                                outcome.cost_usd)
        fraction = token.remaining_fraction()
        if fraction is not None:
            self._budget_fraction[tenant].observe(fraction)
        self.ledger.record(
            tenant, user=request.user, sql=request.sql,
            cost_usd=outcome.cost_usd,
            wall_seconds=outcome.wall_seconds, status="completed",
            dispatch_sequence=request.dispatch_sequence)
        request.future.set_result(outcome)

    def _settle_failure(self, tenant: str, request: _Request,
                        started: float, error: BaseException,
                        status: str) -> None:
        """Ledger a query that delivered no result and relay ``error``."""
        self._read_fragment_latency(getattr(error, "trace", None))
        self.ledger.record(
            tenant, user=request.user, sql=request.sql, cost_usd=0.0,
            wall_seconds=self.clock() - started, status=status,
            dispatch_sequence=request.dispatch_sequence)
        request.future.set_exception(error)

    def _read_fragment_latency(self, trace) -> None:
        """Per-subject fragment latency, read off a query's trace (None
        when the query failed before anything ran)."""
        if trace is None:
            return
        for subject, seconds in trace.executions:
            histogram = self._fragment_latency.get(subject)
            if histogram is None:
                with self._lock:
                    histogram = self._fragment_latency.setdefault(
                        subject, Histogram())
            histogram.observe(seconds)

    # ------------------------------------------------------------------
    # Introspection & lifecycle
    # ------------------------------------------------------------------
    def account(self, tenant: str) -> CreditAccount:
        """The tenant's live credit account (deposit/balance access)."""
        return self._quotas[tenant].account

    def close(self, drain: bool = True) -> None:
        """Stop the gateway.

        ``drain=True`` (default) finishes every queued query first;
        ``drain=False`` fails pending queries with
        :class:`~repro.exceptions.GatewayError`, each ledgered ``failed``
        at no cost — either way nothing is silently dropped.
        Idempotent; blocks until workers exit.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            dropped = self._controller.close(drain=drain)
        for tenant, request in dropped:
            self.ledger.record(
                tenant, user=request.user, sql=request.sql, cost_usd=0.0,
                wall_seconds=0.0, status="failed")
            request.future.set_exception(
                GatewayError("gateway closed before execution"))
        for worker in self._workers:
            worker.join()

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
