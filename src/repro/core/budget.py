"""End-to-end query budgets and cooperative cancellation.

A client that gave up must not have its query planned, dispatched,
retried and failed over at full cost.  :class:`QueryBudget` states what
one query may spend — a wall-clock deadline and/or a §7 cost ceiling —
and :class:`CancellationToken` carries that budget (plus a client
cancel switch) through every layer: gateway → ``QueryService`` →
``DistributedRuntime`` → executor → ``WorkerPool``.

The checkpoint contract
-----------------------
Cancellation is **cooperative**: nothing is killed mid-operation.
Layers call :meth:`CancellationToken.check` at well-defined boundaries
and the abort unwinds as :class:`~repro.exceptions.QueryCancelledError`
or :class:`~repro.exceptions.DeadlineExceededError` from the first
checkpoint that observes it.  The checkpoints are:

* **gateway** — at dequeue, before a queued entry reaches the service
  (an expired or cancelled entry is settled without a single planning
  cycle);
* **service** — on entry, after planning (where the cost ceiling is
  enforced against the assignment's exact §7 cost), and at every
  standby/re-plan failover tier;
* **runtime** — at every fragment boundary, at every retry iteration
  (backoff sleeps are clamped to the remaining budget), and at every
  in-place failover candidate;
* **worker pool** — between chunks of a chunked parallel map, via the
  thread-scoped :func:`active_token` (a chunk in flight completes; the
  next never starts).

Two guarantees follow.  *Bounded abort latency*: the time between
``cancel()``/expiry and the error returning is at most one parallel
chunk or one fragment attempt — whatever unit was in flight when the
abort landed.  *No poisoned caches*: every cache along the pipeline
(plan, assignment, per-assignment keys and dispatch plan, fragment
results) inserts only complete entries after full computation, and those
inserts stay generation-fenced exactly as for policy churn and catalog
refresh — an abort raised at a checkpoint can only *skip* inserts,
never leave a partial one, so a re-run after an abort is bit-identical
to a never-aborted run (property-tested in
``tests/properties/test_budget_cancellation.py``).

Time is injectable (``clock``), following the
:mod:`repro.distributed.health` convention, so deadline behaviour is
fully deterministic under a fake clock.  This module imports nothing
beyond the exception hierarchy, so every layer (including
:mod:`repro.parallel.pool`, which must stay free of crypto/engine
imports) can depend on it without cycles.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.exceptions import DeadlineExceededError, QueryCancelledError


@dataclass(frozen=True)
class QueryBudget:
    """What one query may spend, end to end.

    ``deadline_seconds`` bounds the wall clock from token creation
    (gateway submit / service entry) to result delivery — queue wait,
    planning, retries, backoff sleeps and failover re-planning all
    draw from it.  ``cost_ceiling_usd`` bounds the §7 cost of the plan
    the assignment search selects.  ``None`` disables a dimension; the
    default budget is unlimited on both.
    """

    deadline_seconds: float | None = None
    cost_ceiling_usd: float | None = None

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None \
                and not self.deadline_seconds > 0:
            raise ValueError(
                f"deadline_seconds must be > 0 (or None for no "
                f"deadline), got {self.deadline_seconds!r}")
        if self.cost_ceiling_usd is not None \
                and not self.cost_ceiling_usd > 0:
            raise ValueError(
                f"cost_ceiling_usd must be > 0 (or None for no "
                f"ceiling), got {self.cost_ceiling_usd!r}")

    @property
    def unlimited(self) -> bool:
        """Whether this budget constrains nothing."""
        return self.deadline_seconds is None \
            and self.cost_ceiling_usd is None


class CancellationToken:
    """One query's live budget state: deadline clock + cancel switch.

    Created when the query enters the system (the deadline countdown
    starts *then* — queue wait counts); passed by reference through
    every layer.  Thread-safe: the client cancels from its own thread
    while fragment workers call :meth:`check` concurrently.
    """

    def __init__(self, budget: QueryBudget | None = None, *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.budget = budget if budget is not None else QueryBudget()
        self._clock = clock
        self.started_at = clock()
        self.deadline_at = (
            None if self.budget.deadline_seconds is None
            else self.started_at + self.budget.deadline_seconds)
        self._cancelled = False
        self._cancel_reason: str | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------
    def cancel(self, reason: str = "client cancelled") -> None:
        """Request the query stop at its next checkpoint (idempotent)."""
        with self._lock:
            if not self._cancelled:
                self._cancelled = True
                self._cancel_reason = reason

    @property
    def cancelled(self) -> bool:
        with self._lock:
            return self._cancelled

    @property
    def cancel_reason(self) -> str | None:
        with self._lock:
            return self._cancel_reason

    # ------------------------------------------------------------------
    # Budget arithmetic
    # ------------------------------------------------------------------
    def elapsed_seconds(self) -> float:
        return self._clock() - self.started_at

    def remaining_seconds(self) -> float | None:
        """Seconds left on the deadline (``None`` = no deadline).

        Never negative: an expired token reports ``0.0``, so callers
        can clamp sleeps with ``min(delay, remaining)`` directly.
        """
        if self.deadline_at is None:
            return None
        return max(0.0, self.deadline_at - self._clock())

    def remaining_fraction(self) -> float | None:
        """Remaining / total deadline in [0, 1] (``None`` = no deadline)."""
        if self.budget.deadline_seconds is None:
            return None
        remaining = self.remaining_seconds()
        return min(1.0, remaining / self.budget.deadline_seconds)

    def expired(self) -> bool:
        """Whether the deadline has passed (False without a deadline)."""
        return self.deadline_at is not None \
            and self._clock() >= self.deadline_at

    def clamp(self, seconds: float) -> float:
        """``seconds`` bounded by the remaining budget (for sleeps)."""
        remaining = self.remaining_seconds()
        if remaining is None:
            return seconds
        return min(seconds, remaining)

    # ------------------------------------------------------------------
    # The checkpoint
    # ------------------------------------------------------------------
    def check(self, where: str) -> None:
        """Raise if the query must stop; otherwise return immediately.

        Cancellation wins over expiry when both hold (the client's
        explicit signal is the more specific diagnosis).  ``where``
        names the checkpoint for the error message and the exception's
        ``where`` attribute.
        """
        if self.cancelled:
            raise QueryCancelledError(
                f"query cancelled ({self.cancel_reason}) at {where}",
                where=where, reason=self.cancel_reason)
        if self.expired():
            elapsed = self.elapsed_seconds()
            raise DeadlineExceededError(
                f"query deadline of {self.budget.deadline_seconds:g}s "
                f"exceeded at {where} (elapsed {elapsed:.3f}s)",
                where=where,
                deadline_seconds=self.budget.deadline_seconds,
                elapsed_seconds=elapsed)


# ---------------------------------------------------------------------
# Thread-scoped token propagation
# ---------------------------------------------------------------------
# The worker pool and the executor sit several layers below the code
# that owns the token, behind interfaces (persistent per-subject
# executors, a process-wide shared pool) that outlive any one query.
# Rather than threading a per-query argument through every call, the
# runtime scopes the token to the thread evaluating a fragment; the
# chunked parallel map picks it up between chunks via active_token().
_SCOPE = threading.local()


def active_token() -> CancellationToken | None:
    """The token scoped to the current thread, if any."""
    return getattr(_SCOPE, "token", None)


@contextmanager
def token_scope(token: CancellationToken | None) -> Iterator[None]:
    """Scope ``token`` to the current thread for the ``with`` body.

    Re-entrant (the previous scope is restored on exit); a ``None``
    token clears the scope for the body, so unbudgeted work nested
    inside budgeted work is never aborted by the outer token.
    """
    previous = getattr(_SCOPE, "token", None)
    _SCOPE.token = token
    try:
        yield
    finally:
        _SCOPE.token = previous
