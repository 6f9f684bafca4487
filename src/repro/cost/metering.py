"""Per-tenant metering: credit accounts and the spend ledger.

The §7 cost model already prices every executed query — each
:class:`~repro.service.QueryOutcome` carries the exact dollar cost of
its costed trace, derived from the subject :class:`~repro.cost.pricing.PriceList`.
Metering is therefore a wiring problem: the gateway debits each
outcome's ``cost_usd`` from the querying tenant's
:class:`CreditAccount` and appends a :class:`LedgerEntry` to the shared
:class:`Ledger`, giving operators a per-tenant spend history and the
quota layer a balance to gate admission on.  The ledger is the one
record of a tenant's queries: lifetime spend and the gateway's
per-status counters are read from it, not kept beside it.

Billing is **postpaid**: admission checks that the balance is positive,
the debit happens after execution with the query's *actual* cost, so a
tenant's final query may overdraw by at most one query's cost (the
balance then goes negative and every further query is rejected before
any planning work is spent).

Examples
--------
>>> account = CreditAccount("gold", credits_usd=0.5)
>>> account.admissible
True
>>> account.debit(0.25)
0.25
>>> account.debit(0.5)          # postpaid: the last query may overdraw
-0.25
>>> account.admissible
False
>>> ledger = Ledger()
>>> entry = ledger.record("gold", user="U", sql="select 1",
...                       cost_usd=0.25, wall_seconds=0.01)
>>> entry.sequence
1
>>> ledger.lifetime()
{('gold', 'completed'): (1, 0.25)}
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Mapping

#: Entries retained per tenant (totals cover every query regardless;
#: history must not pin unbounded memory).
RETAINED_ENTRIES = 256


class CreditAccount:
    """A tenant's prepaid credit balance, debited per executed query.

    ``credits_usd=None`` means unmetered (the account is always
    admissible and a debit changes nothing).  Lifetime spend is the
    :class:`Ledger`'s, not the account's.  Thread-safe: gateway workers
    debit concurrently with admission-time balance checks.
    """

    def __init__(self, tenant: str,
                 credits_usd: float | None = None) -> None:
        if credits_usd is not None and credits_usd < 0:
            raise ValueError(
                f"credits_usd must be non-negative, got {credits_usd!r}")
        self.tenant = tenant
        self._unmetered = credits_usd is None
        self._balance = 0.0 if credits_usd is None else float(credits_usd)
        self._lock = threading.Lock()

    @property
    def unmetered(self) -> bool:
        return self._unmetered

    @property
    def balance_usd(self) -> float:
        """Remaining credit (negative after a postpaid overdraw)."""
        with self._lock:
            return self._balance

    @property
    def admissible(self) -> bool:
        """Whether a new query may be admitted against this account."""
        with self._lock:
            return self._unmetered or self._balance > 0.0

    def debit(self, amount_usd: float) -> float:
        """Charge ``amount_usd``; returns the new balance."""
        if amount_usd < 0:
            raise ValueError(f"cannot debit {amount_usd!r}")
        with self._lock:
            if not self._unmetered:
                self._balance -= amount_usd
            return self._balance

    def deposit(self, amount_usd: float) -> float:
        """Top the account up; returns the new balance.

        Depositing into an unmetered account converts it to a metered
        one (the only way a previously unlimited tenant acquires a
        budget).
        """
        if amount_usd < 0:
            raise ValueError(f"cannot deposit {amount_usd!r}")
        with self._lock:
            self._unmetered = False
            self._balance += amount_usd
            return self._balance


@dataclass(frozen=True)
class LedgerEntry:
    """One metered query in completion order."""

    sequence: int
    tenant: str
    user: str
    sql: str
    status: str
    cost_usd: float
    wall_seconds: float
    #: Position in the gateway's dispatch order (``None`` when the
    #: recording layer does not schedule, e.g. direct service calls).
    dispatch_sequence: int | None = None


class Ledger:
    """Thread-safe per-tenant spend history with bounded retention.

    Entries get a global monotone ``sequence`` in recording (completion)
    order; the lifetime count and spend per ``(tenant, status)`` cover
    every query ever recorded — the gateway's outcome counters are read
    from them — while only the last :data:`RETAINED_ENTRIES` entries per
    tenant are retained.
    """

    def __init__(self) -> None:
        self._entries: dict[str, Deque[LedgerEntry]] = {}
        self._lifetime: dict[tuple[str, str], tuple[int, float]] = {}
        self._sequence = 0
        self._lock = threading.Lock()

    def record(self, tenant: str, *, user: str, sql: str,
               cost_usd: float, wall_seconds: float,
               status: str = "completed",
               dispatch_sequence: int | None = None) -> LedgerEntry:
        """Append one entry; returns it with its sequence assigned."""
        with self._lock:
            self._sequence += 1
            entry = LedgerEntry(
                sequence=self._sequence, tenant=tenant, user=user,
                sql=sql, status=status, cost_usd=cost_usd,
                wall_seconds=wall_seconds,
                dispatch_sequence=dispatch_sequence,
            )
            history = self._entries.get(tenant)
            if history is None:
                history = deque(maxlen=RETAINED_ENTRIES)
                self._entries[tenant] = history
            history.append(entry)
            count, spend = self._lifetime.get((tenant, status), (0, 0.0))
            self._lifetime[tenant, status] = (count + 1, spend + cost_usd)
            return entry

    def entries(self, tenant: str) -> tuple[LedgerEntry, ...]:
        """The retained history for ``tenant`` (oldest first)."""
        with self._lock:
            return tuple(self._entries.get(tenant, ()))

    def all_entries(self) -> tuple[LedgerEntry, ...]:
        """Every retained entry across tenants, in sequence order."""
        with self._lock:
            merged = [entry for history in self._entries.values()
                      for entry in history]
        return tuple(sorted(merged, key=lambda entry: entry.sequence))

    def lifetime(self) -> Mapping[tuple[str, str], tuple[int, float]]:
        """``(tenant, status)`` → (queries, spend) over every query ever
        recorded, not just the retained history."""
        with self._lock:
            return dict(self._lifetime)

    def spend_usd(self, tenant: str) -> float:
        """Lifetime metered spend of ``tenant``."""
        return sum((spend for (name, _), (_, spend)
                    in self.lifetime().items() if name == tenant), 0.0)

    def query_count(self, tenant: str) -> int:
        """Lifetime recorded query count of ``tenant``."""
        return sum(count for (name, _), (count, _)
                   in self.lifetime().items() if name == tenant)
