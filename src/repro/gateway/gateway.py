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
* **observability** — every admission decision, queue depth, dispatch,
  query latency, fragment latency (via the runtime's metrics sink),
  breaker state and cache hit rate lands in a
  :class:`~repro.obs.metrics.MetricsRegistry`, scrapable as Prometheus
  text from :meth:`Gateway.metrics_text` (and ``python -m repro
  metrics`` on the CLI);
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
Time is injected via ``clock`` for deterministic queue-wait
accounting; execution itself is as concurrent as the service allows.
"""

from __future__ import annotations

import threading
import time
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
from repro.obs.metrics import DEFAULT_FRACTION_BUCKETS, MetricsRegistry
from repro.service import QueryOutcome, QueryService

#: Query-latency quantile of the tenant's own histogram that stands in
#: for a run-time prediction when the per-SQL predictor has no signal.
_SHED_QUANTILE = 0.9

#: Breaker states as gauge values.
_BREAKER_STATES = {"closed": 0.0, "half_open": 1.0, "open": 2.0}


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
                 enqueued_at: float,
                 token: CancellationToken | None = None) -> None:
        self.tenant = tenant
        self.sql = sql
        self.user = user
        self.future: Future = Future()
        self.enqueued_at = enqueued_at
        self.dispatch_sequence: int | None = None
        self.token = token


class _FragmentSink:
    """Adapter: runtime fragment completions → a labelled histogram."""

    def __init__(self, histogram) -> None:
        self._histogram = histogram

    def observe_fragment(self, subject: str, seconds: float) -> None:
        self._histogram.labels(subject).observe(seconds)


class Gateway:
    """Multi-tenant admission/quota/metering front-end over one service."""

    def __init__(self, service: QueryService,
                 tenants: Iterable[TenantConfig], *,
                 max_inflight: int = 4,
                 clock=time.monotonic,
                 shed_safety: float = 1.0) -> None:
        tenants = list(tenants)
        if not tenants:
            raise ValueError("a gateway needs at least one tenant")
        names = [config.name for config in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        if shed_safety <= 0:
            raise ValueError(
                f"shed_safety must be positive, got {shed_safety!r}")
        self.service = service
        self.clock = clock
        self.shed_safety = shed_safety
        self.tenants: Mapping[str, TenantConfig] = {
            config.name: config for config in tenants}
        self.ledger = Ledger()
        self.registry = MetricsRegistry()
        self._controller = AdmissionController(max_inflight)
        self._max_inflight = max_inflight
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
                clock=clock)
        self._register_metrics()
        self.service.attach_metrics(
            _FragmentSink(self._fragment_latency))
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
    def _register_metrics(self) -> None:
        registry = self.registry
        self._submitted = registry.counter(
            "repro_gateway_queries_submitted_total",
            "Queries offered to the gateway, admitted or not.",
            labelnames=("tenant",))
        self._completed = registry.counter(
            "repro_gateway_queries_completed_total",
            "Queries executed to a result.", labelnames=("tenant",))
        self._failed = registry.counter(
            "repro_gateway_queries_failed_total",
            "Admitted queries whose execution raised.",
            labelnames=("tenant",))
        self._rejected = registry.counter(
            "repro_gateway_queries_rejected_total",
            "Queries rejected before planning, by reason "
            "(queue_full, rate, credits).",
            labelnames=("tenant", "reason"))
        self._queue_depth = registry.gauge(
            "repro_gateway_queue_depth",
            "Queries queued per tenant right now.",
            labelnames=("tenant",))
        self._inflight = registry.gauge(
            "repro_gateway_inflight",
            "Admitted queries currently executing.")
        self._queue_wait = registry.histogram(
            "repro_gateway_queue_wait_seconds",
            "Admission-to-dispatch wait.", labelnames=("tenant",))
        self._query_seconds = registry.histogram(
            "repro_gateway_query_seconds",
            "End-to-end execution time of admitted queries.",
            labelnames=("tenant",))
        self._credits_spent = registry.counter(
            "repro_gateway_credits_spent_usd_total",
            "Metered spend per tenant (sum of costed traces).",
            labelnames=("tenant",))
        self._deadline_exceeded = registry.counter(
            "repro_gateway_deadline_exceeded_total",
            "Queries whose end-to-end deadline expired (at dequeue or "
            "mid-execution).", labelnames=("tenant",))
        self._cancelled = registry.counter(
            "repro_gateway_cancelled_total",
            "Queries cancelled by their client via the token.",
            labelnames=("tenant",))
        self._shed_predicted = registry.counter(
            "repro_gateway_shed_predicted_total",
            "Queries shed at submit because the predictor expected them "
            "to blow their budget (predicted_deadline, predicted_cost).",
            labelnames=("tenant", "reason"))
        self._budget_fraction = registry.histogram(
            "repro_gateway_budget_remaining_fraction",
            "Fraction of the deadline budget left when a budgeted query "
            "delivered its result.", buckets=DEFAULT_FRACTION_BUCKETS,
            labelnames=("tenant",))
        self._fragment_latency = registry.histogram(
            "repro_fragment_latency_seconds",
            "Per-subject fragment execution time (runtime sink).",
            labelnames=("subject",))
        self._breaker_state = registry.gauge(
            "repro_breaker_state",
            "Circuit breaker per subject (0 closed, 1 half-open, "
            "2 open, 3 dead).", labelnames=("subject",))
        self._breaker_trips = registry.counter(
            "repro_breaker_trips_total",
            "Circuit breaker trips per subject.",
            labelnames=("subject",))
        self._cache_hits = registry.counter(
            "repro_cache_hits_total",
            "Cache hits by cache (assignment).",
            labelnames=("cache",))
        self._cache_misses = registry.counter(
            "repro_cache_misses_total",
            "Cache misses by cache (assignment).",
            labelnames=("cache",))
        self._cache_entries = registry.gauge(
            "repro_cache_entries",
            "Resident entries by cache (plans, fragments, assignment).",
            labelnames=("cache",))
        registry.register_collector(self._collect)

    def _collect(self) -> None:
        """Mirror service/runtime snapshots into the registry (scrape)."""
        for tenant, depth in self._controller.depths().items():
            self._queue_depth.labels(tenant).set(depth)
        for subject, record in self.service.health_info().items():
            state = 3.0 if record["dead"] \
                else _BREAKER_STATES[record["state"]]
            self._breaker_state.labels(subject).set(state)
            self._breaker_trips.labels(subject).set_total(
                record["breaker_trips"])
        info = self.service.cache_info()
        assignment = info["assignment"]
        self._cache_hits.labels("assignment").set_total(
            assignment["hits"])
        self._cache_misses.labels("assignment").set_total(
            assignment["misses"])
        self._cache_entries.labels("plans").set(info["plans"])
        self._cache_entries.labels("assignment").set(assignment["size"])
        self._cache_entries.labels("fragments").set(
            info["fragment_entries"])

    def metrics_text(self) -> str:
        """The gateway's metrics in Prometheus text exposition format."""
        return self.registry.render()

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
        from it.  Pass ``token`` instead to keep a countdown that
        started earlier, or to retain a ``cancel()`` handle (also
        available afterwards via ``Future.cancellation_token``, set on
        the returned future whenever the query runs budgeted).

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
        self._submitted.labels(tenant).inc()
        quota = self._quotas[tenant]
        try:
            quota.check(self.ledger)
        except QuotaExceeded as refusal:
            self._rejected.labels(tenant, refusal.reason).inc()
            raise
        if token is None:
            merged = quota.budget_for(budget)
            if merged is not None:
                token = CancellationToken(merged, clock=self.clock)
        self._shed_if_predicted_over_budget(tenant, sql, token)
        request = _Request(tenant, sql, config.user or self.service.user,
                           self.clock(), token=token)
        try:
            self._controller.submit(tenant, request)
        except AdmissionRejected:
            self._rejected.labels(tenant, "queue_full").inc()
            raise
        # Expose the cancel handle on the future so callers who passed
        # only a budget can still abort mid-flight.
        request.future.cancellation_token = token
        return request.future

    def _shed_if_predicted_over_budget(
            self, tenant: str, sql: str,
            token: CancellationToken | None) -> None:
        """Refuse work the predictor expects to blow its budget.

        Deadline: the predicted run time (per-SQL EWMA, else the
        tenant's p90 query latency, :data:`_SHED_QUANTILE`) is scaled by
        the standing backlog relative to the in-flight window and by
        ``shed_safety``; if that exceeds the token's remaining budget
        the query is shed with a retry-after equal to the queue-wait
        component (by then the backlog estimate has drained).  Cost:
        the per-SQL cost EWMA against the ceiling, no retry-after —
        waiting cannot make a plan cheaper.  No signal → admit: cold
        starts must pass, and a wrong admit still dies cheaply at the
        dequeue/planning checkpoints.
        """
        if token is None:
            return
        remaining = token.remaining_seconds()
        if remaining is not None:
            run_seconds = self._predictor.predict_seconds(sql)
            if run_seconds is None:
                quantile = self._query_seconds.labels(tenant).quantile(
                    _SHED_QUANTILE)
                if quantile > 0.0 and quantile != float("inf"):
                    run_seconds = quantile
            if run_seconds is not None:
                backlog_factor = 1.0 + (self._controller.backlog()
                                        / self._max_inflight)
                predicted = run_seconds * backlog_factor \
                    * self.shed_safety
                if predicted > remaining:
                    self._shed_predicted.labels(
                        tenant, "predicted_deadline").inc()
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
                self._shed_predicted.labels(
                    tenant, "predicted_cost").inc()
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
            self._queue_wait.labels(tenant).observe(
                self.clock() - request.enqueued_at)
            self._inflight.inc()
            try:
                self._execute_request(tenant, request)
            finally:
                self._inflight.dec()
                self._controller.release()

    def _execute_request(self, tenant: str, request: _Request) -> None:
        quota = self._quotas[tenant]
        started = self.clock()
        token = request.token
        if token is not None:
            # Shed-at-dequeue: an entry that died in the queue (client
            # cancelled, or its deadline lapsed while it waited) is
            # settled here without spending a byte of planning.  This
            # is also what lets close(drain=True) flush a backlog of
            # expired work instead of executing it.
            try:
                token.check("gateway:dequeue")
            except QueryCancelledError as error:
                self._cancelled.labels(tenant).inc()
                self.ledger.record(
                    tenant, user=request.user, sql=request.sql,
                    cost_usd=0.0, wall_seconds=self.clock() - started,
                    status="cancelled",
                    dispatch_sequence=request.dispatch_sequence)
                request.future.set_exception(error)
                return
            except DeadlineExceededError as error:
                self._deadline_exceeded.labels(tenant).inc()
                self.ledger.record(
                    tenant, user=request.user, sql=request.sql,
                    cost_usd=0.0, wall_seconds=self.clock() - started,
                    status="shed",
                    dispatch_sequence=request.dispatch_sequence)
                request.future.set_exception(error)
                return
        try:
            if token is None:
                outcome = self.service.execute(request.sql,
                                               user=request.user)
            else:
                outcome = self.service.execute(request.sql,
                                               user=request.user,
                                               token=token)
        except BaseException as error:  # noqa: BLE001 — relayed, not hidden
            if isinstance(error, QueryCancelledError):
                self._cancelled.labels(tenant).inc()
                status = "cancelled"
            elif isinstance(error, DeadlineExceededError):
                self._deadline_exceeded.labels(tenant).inc()
                status = "deadline"
            else:
                self._failed.labels(tenant).inc()
                status = "failed"
            self.ledger.record(
                tenant, user=request.user, sql=request.sql,
                cost_usd=0.0, wall_seconds=self.clock() - started,
                status=status,
                dispatch_sequence=request.dispatch_sequence)
            request.future.set_exception(error)
            return
        quota.settle(outcome.cost_usd)
        self._credits_spent.labels(tenant).inc(outcome.cost_usd)
        self._completed.labels(tenant).inc()
        self._query_seconds.labels(tenant).observe(outcome.wall_seconds)
        self._predictor.observe(request.sql, outcome.wall_seconds,
                                outcome.cost_usd)
        if token is not None:
            fraction = token.remaining_fraction()
            if fraction is not None:
                self._budget_fraction.labels(tenant).observe(fraction)
        self.ledger.record(
            tenant, user=request.user, sql=request.sql,
            cost_usd=outcome.cost_usd,
            wall_seconds=outcome.wall_seconds, status="completed",
            dispatch_sequence=request.dispatch_sequence)
        request.future.set_result(outcome)

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
        :class:`~repro.exceptions.GatewayError` — either way nothing is
        silently dropped.  Idempotent; blocks until workers exit.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            dropped = self._controller.close(drain=drain)
        for _, request in dropped:
            request.future.set_exception(
                GatewayError("gateway closed before execution"))
        for worker in self._workers:
            worker.join()
        self.service.attach_metrics(None)

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
