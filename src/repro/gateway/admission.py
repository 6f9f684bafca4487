"""Admission control: bounded tenant queues and weighted fair dispatch.

The gateway must keep serving every tenant when total demand exceeds
capacity.  Two cooperating pieces implement that:

:class:`FairScheduler`
    Per-tenant bounded FIFO queues drained by *smooth weighted
    round-robin* (the nginx algorithm): on every dequeue each backlogged
    tenant's current priority grows by its weight, the highest-priority
    tenant is served and pays the total active weight back.  Over any
    window in which a set of tenants stays backlogged, each receives a
    share of dispatches proportional to its weight, within one dispatch
    — deterministic, no randomness, no starvation.  A full queue refuses
    new work with an explicit
    :class:`~repro.exceptions.AdmissionRejected` (lossless load
    shedding: nothing is ever silently dropped).

:class:`AdmissionController`
    Wraps the scheduler with the in-flight bound and blocking dispatch:
    at most ``max_inflight`` admitted queries execute concurrently;
    workers block in :meth:`AdmissionController.acquire` until a request
    and an execution slot are both available.  Dispatches are numbered
    under the same lock that orders them, so the dispatch sequence is
    the ground truth for fairness audits.

:class:`LatencyPredictor`
    The cost-predictive half of graceful degradation: bounded per-SQL
    EWMAs of observed wall time and §7 cost, fed from every completed
    query.  The gateway consults it (falling back to its per-tenant
    query-latency histogram) to refuse work predicted to blow its
    deadline or cost ceiling *before* it is queued — see
    :meth:`~repro.gateway.Gateway.submit`.

Neither class reads the wall clock: queue-wait timestamps are stamped
by the gateway through its injectable ``clock`` callable (following the
:mod:`repro.distributed.health` style), so admission behaviour is fully
deterministic under a fake clock.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque

from repro.core.cache import LRU
from repro.exceptions import AdmissionRejected

#: Default bound on queued queries per tenant.
DEFAULT_QUEUE_DEPTH = 16

#: Distinct SQL texts the latency predictor tracks (LRU beyond it).
DEFAULT_PREDICTOR_SIZE = 512

#: EWMA smoothing for the predictor: high enough to follow a workload
#: shift within a few queries, low enough to ride out one-off spikes.
DEFAULT_PREDICTOR_ALPHA = 0.3


class LatencyPredictor:
    """Bounded per-SQL EWMAs of wall seconds and §7 cost (thread-safe).

    Keyed by exact SQL text — the repeat-heavy workload this system
    serves makes the text a strong predictor (same text → same plan →
    same assignment via the service's caches).  Unseen text predicts
    ``None``; the gateway then falls back to its per-tenant latency
    histogram, and admits when that too has no signal — prediction
    must never brick a cold start.
    """

    def __init__(self) -> None:
        #: sql → (wall-seconds EWMA, cost EWMA); recency = last observed.
        self._ewmas = LRU(DEFAULT_PREDICTOR_SIZE)
        self._lock = threading.Lock()

    def observe(self, sql: str, wall_seconds: float,
                cost_usd: float) -> None:
        """Fold one completed query into the EWMAs."""
        with self._lock:
            entry = self._ewmas.peek(sql)
            if entry is not None:
                alpha = DEFAULT_PREDICTOR_ALPHA
                wall_seconds = alpha * wall_seconds \
                    + (1.0 - alpha) * entry[0]
                cost_usd = alpha * cost_usd + (1.0 - alpha) * entry[1]
            self._ewmas.put(sql, (wall_seconds, cost_usd))

    def predict_seconds(self, sql: str) -> float | None:
        """Expected wall seconds for ``sql`` (None = never observed)."""
        with self._lock:
            entry = self._ewmas.peek(sql)
            return None if entry is None else entry[0]

    def predict_cost(self, sql: str) -> float | None:
        """Expected §7 cost in USD for ``sql`` (None = never observed)."""
        with self._lock:
            entry = self._ewmas.peek(sql)
            return None if entry is None else entry[1]


class _TenantQueue:
    """One tenant's bounded FIFO plus its smooth-WRR priority state."""

    __slots__ = ("name", "weight", "depth", "items", "priority")

    def __init__(self, name: str, weight: int, depth: int) -> None:
        self.name = name
        self.weight = weight
        self.depth = depth
        self.items: Deque[object] = deque()
        self.priority = 0


class FairScheduler:
    """Smooth weighted round-robin over bounded per-tenant queues.

    Not thread-safe by itself — :class:`AdmissionController` serializes
    access under its condition lock; tests drive it directly.
    """

    def __init__(self) -> None:
        self._queues: dict[str, _TenantQueue] = {}

    def register(self, tenant: str, weight: int = 1,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH) -> None:
        """Add a tenant queue.  Weights and depths must be positive."""
        if tenant in self._queues:
            raise ValueError(f"tenant {tenant!r} already registered")
        if not isinstance(weight, int) or weight < 1:
            raise ValueError(
                f"weight must be a positive integer, got {weight!r}")
        if not isinstance(queue_depth, int) or queue_depth < 1:
            raise ValueError(
                f"queue_depth must be a positive integer, "
                f"got {queue_depth!r}")
        self._queues[tenant] = _TenantQueue(tenant, weight, queue_depth)

    def offer(self, tenant: str, item: object) -> None:
        """Enqueue ``item`` or raise :class:`AdmissionRejected`."""
        queue = self._queues.get(tenant)
        if queue is None:
            raise ValueError(f"unknown tenant {tenant!r}; registered: "
                             f"{sorted(self._queues)}")
        if len(queue.items) >= queue.depth:
            raise AdmissionRejected(
                f"tenant {tenant!r} queue is full "
                f"({queue.depth} queued); retry with backoff",
                tenant=tenant, queue_depth=queue.depth)
        queue.items.append(item)

    def take(self) -> tuple[str, object] | None:
        """Dequeue from the next tenant by smooth WRR; None when empty."""
        active = [queue for queue in self._queues.values() if queue.items]
        if not active:
            return None
        total = sum(queue.weight for queue in active)
        best = None
        for queue in active:
            queue.priority += queue.weight
            if best is None or queue.priority > best.priority:
                best = queue
        best.priority -= total
        return best.name, best.items.popleft()

    def depth(self, tenant: str) -> int:
        return len(self._queues[tenant].items)

    def depths(self) -> dict[str, int]:
        """Queued requests per tenant (the queue-depth gauge source)."""
        return {name: len(queue.items)
                for name, queue in self._queues.items()}

    def backlog(self) -> int:
        """Total queued requests across every tenant."""
        return sum(len(queue.items) for queue in self._queues.values())

    def drain(self) -> list[tuple[str, object]]:
        """Remove and return everything still queued (shutdown path)."""
        drained: list[tuple[str, object]] = []
        while True:
            taken = self.take()
            if taken is None:
                return drained
            drained.append(taken)


class AdmissionController:
    """The scheduler plus the bounded in-flight execution window."""

    def __init__(self, max_inflight: int) -> None:
        if not isinstance(max_inflight, int) or max_inflight < 1:
            raise ValueError(
                f"max_inflight must be a positive integer, "
                f"got {max_inflight!r}")
        self.max_inflight = max_inflight
        self._scheduler = FairScheduler()
        self._condition = threading.Condition()
        self._inflight = 0
        self._dispatched = 0
        self._closed = False

    def register(self, tenant: str, weight: int = 1,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH) -> None:
        with self._condition:
            self._scheduler.register(tenant, weight, queue_depth)

    def submit(self, tenant: str, item: object) -> None:
        """Enqueue or raise (:class:`AdmissionRejected`, ``ValueError``)."""
        with self._condition:
            if self._closed:
                raise RuntimeError("admission controller is closed")
            self._scheduler.offer(tenant, item)
            self._condition.notify()

    def acquire(self) -> tuple[str, object, int] | None:
        """Block for the next request and an execution slot.

        Returns ``(tenant, item, dispatch_sequence)`` — the sequence is
        assigned under the ordering lock, so it is the authoritative
        dispatch order for fairness auditing.  Returns ``None`` once the
        controller is closed and (when closing in drain mode) the
        backlog is empty.  Every successful acquire must be paired with
        one :meth:`release`.
        """
        with self._condition:
            while True:
                if self._inflight < self.max_inflight:
                    taken = self._scheduler.take()
                    if taken is not None:
                        tenant, item = taken
                        self._inflight += 1
                        self._dispatched += 1
                        return tenant, item, self._dispatched
                if self._closed:
                    return None
                self._condition.wait()

    def release(self) -> None:
        """Return an execution slot after a query finishes."""
        with self._condition:
            self._inflight -= 1
            self._condition.notify_all()

    def close(self, drain: bool = True) -> list[tuple[str, object]]:
        """Stop admitting; wake every waiter.

        With ``drain=True`` (default) workers keep acquiring until the
        backlog is empty; with ``drain=False`` the backlog is removed
        and returned so the caller can fail each pending request
        explicitly — queries are never silently dropped.
        """
        with self._condition:
            self._closed = True
            dropped = [] if drain else self._scheduler.drain()
            self._condition.notify_all()
            return dropped

    @property
    def inflight(self) -> int:
        with self._condition:
            return self._inflight

    def depths(self) -> dict[str, int]:
        with self._condition:
            return self._scheduler.depths()

    def backlog(self) -> int:
        with self._condition:
            return self._scheduler.backlog()
