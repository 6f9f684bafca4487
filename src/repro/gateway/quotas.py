"""Per-tenant quotas: token-bucket rate limits and credit gates.

Two independent quota dimensions gate admission, both checked *before*
any planning work is spent on a query:

* **rate** — a classic :class:`TokenBucket`: ``rate_per_second`` tokens
  accrue continuously up to a ``burst`` capacity and each admitted
  query consumes one.  An empty bucket rejects with
  :class:`~repro.exceptions.QuotaExceeded` carrying the exact
  ``retry_after_seconds`` until the next token;
* **credits** — the tenant's prepaid
  :class:`~repro.cost.metering.CreditAccount` must be admissible
  (positive balance).  Credit is debited post-execution with the
  query's actual §7 cost (postpaid metering, see
  :mod:`repro.cost.metering`), so exhaustion rejects every *further*
  query with the tenant's spend-so-far attached.

A third, *advisory* dimension rides along: per-tenant default query
budgets (``deadline_seconds`` / ``cost_ceiling_usd``).  They are not an
admission gate themselves — :meth:`TenantQuota.budget_for` merges them
under any per-query budget the caller requested (the request wins field
by field), and the gateway turns the merged budget into the
:class:`~repro.core.budget.CancellationToken` that bounds the query end
to end.

Time is injected (``clock``), so bucket refill is unit-testable with a
fake clock and never sleeps.
"""

from __future__ import annotations

import threading
import time

from repro.core.budget import QueryBudget
from repro.cost.metering import CreditAccount, Ledger
from repro.exceptions import QuotaExceeded


class TokenBucket:
    """A continuously refilling token bucket (thread-safe).

    ``rate_per_second`` tokens accrue per second up to ``burst``; the
    bucket starts full.  :meth:`try_acquire` either takes the tokens
    and returns ``None``, or returns the seconds until enough tokens
    will have accrued (never mutating state on refusal).
    """

    def __init__(self, rate_per_second: float, burst: float = 1.0,
                 clock=time.monotonic) -> None:
        if rate_per_second <= 0:
            raise ValueError(
                f"rate_per_second must be positive, "
                f"got {rate_per_second!r}")
        if burst < 1.0:
            raise ValueError(f"burst must be >= 1, got {burst!r}")
        self.rate_per_second = float(rate_per_second)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = self.burst
        self._updated = clock()
        self._lock = threading.Lock()

    def _refill_locked(self) -> None:
        now = self._clock()
        elapsed = now - self._updated
        if elapsed > 0:
            self._tokens = min(self.burst,
                               self._tokens + elapsed * self.rate_per_second)
        self._updated = now

    def available(self) -> float:
        """Tokens currently in the bucket."""
        with self._lock:
            self._refill_locked()
            return self._tokens

    def try_acquire(self, tokens: float = 1.0) -> float | None:
        """Take ``tokens`` now (``None``) or report the wait in seconds."""
        if tokens <= 0:
            raise ValueError(f"tokens must be positive, got {tokens!r}")
        if tokens > self.burst:
            raise ValueError(
                f"cannot acquire {tokens!r} tokens from a bucket of "
                f"burst {self.burst!r}")
        with self._lock:
            self._refill_locked()
            if self._tokens >= tokens:
                self._tokens -= tokens
                return None
            return (tokens - self._tokens) / self.rate_per_second


class TenantQuota:
    """One tenant's combined rate + credit admission gate."""

    def __init__(self, tenant: str, *,
                 rate_per_second: float | None = None,
                 burst: float = 1.0,
                 credits_usd: float | None = None,
                 deadline_seconds: float | None = None,
                 cost_ceiling_usd: float | None = None,
                 clock=time.monotonic) -> None:
        self.tenant = tenant
        self.bucket = (None if rate_per_second is None
                       else TokenBucket(rate_per_second, burst,
                                        clock=clock))
        self.account = CreditAccount(tenant, credits_usd=credits_usd)
        # Validates both fields (> 0 or None) via QueryBudget.
        self.default_budget = QueryBudget(
            deadline_seconds=deadline_seconds,
            cost_ceiling_usd=cost_ceiling_usd)

    def budget_for(self, requested: QueryBudget | None) -> QueryBudget:
        """The effective budget for one query: request over defaults.

        Field-by-field merge — a requested field wins, a ``None``
        requested field falls back to the tenant default.  When neither
        side constrains anything the budget is unlimited
        (``QueryBudget()``): every query runs under a token.
        """
        default = self.default_budget
        if requested is None:
            return default
        deadline = requested.deadline_seconds \
            if requested.deadline_seconds is not None \
            else default.deadline_seconds
        ceiling = requested.cost_ceiling_usd \
            if requested.cost_ceiling_usd is not None \
            else default.cost_ceiling_usd
        return QueryBudget(deadline_seconds=deadline,
                           cost_ceiling_usd=ceiling)

    def check(self, ledger: Ledger) -> None:
        """Admit one query or raise :class:`QuotaExceeded`.

        Credits are checked first: a broke tenant must be refused even
        when its rate bucket is full, without consuming a token.  On a
        rate refusal no state changes, so the reported
        ``retry_after_seconds`` stays accurate for the retry.
        """
        spent = ledger.spend_usd(self.tenant)
        if not self.account.admissible:
            raise QuotaExceeded(
                f"tenant {self.tenant!r} has exhausted its credit "
                f"(balance ${self.account.balance_usd:.6f}, "
                f"spent ${spent:.6f}); deposit to continue",
                tenant=self.tenant, reason="credits", spent_usd=spent)
        if self.bucket is not None:
            wait = self.bucket.try_acquire()
            if wait is not None:
                raise QuotaExceeded(
                    f"tenant {self.tenant!r} is over its rate limit "
                    f"({self.bucket.rate_per_second:g} queries/s); "
                    f"retry in {wait:.3f}s",
                    tenant=self.tenant, reason="rate", spent_usd=spent,
                    retry_after_seconds=wait)

    def settle(self, ledger_entry_cost_usd: float) -> float:
        """Debit the executed query's actual cost; new balance."""
        return self.account.debit(ledger_entry_cost_usd)
