"""Token buckets, credit accounts, and the spend ledger."""

from __future__ import annotations

import pytest

from helpers import FakeClock
from repro.cost.metering import CreditAccount, Ledger
from repro.exceptions import QuotaExceeded
from repro.gateway.quotas import TenantQuota, TokenBucket


# ----------------------------------------------------------------------
# Token bucket
# ----------------------------------------------------------------------
def test_bucket_starts_full_and_refills_with_time():
    clock = FakeClock()
    bucket = TokenBucket(rate_per_second=2.0, burst=4.0, clock=clock)
    for _ in range(4):
        assert bucket.try_acquire() is None
    wait = bucket.try_acquire()
    assert wait == pytest.approx(0.5)  # 1 token at 2/s
    clock.advance(0.25)
    assert bucket.try_acquire() == pytest.approx(0.25)
    clock.advance(0.25)
    assert bucket.try_acquire() is None


def test_bucket_caps_at_burst():
    clock = FakeClock()
    bucket = TokenBucket(rate_per_second=100.0, burst=2.0, clock=clock)
    clock.advance(1000.0)
    assert bucket.available() == pytest.approx(2.0)


def test_bucket_refusal_does_not_consume():
    clock = FakeClock()
    bucket = TokenBucket(rate_per_second=1.0, burst=1.0, clock=clock)
    assert bucket.try_acquire() is None
    first = bucket.try_acquire()
    second = bucket.try_acquire()
    assert first == second == pytest.approx(1.0)


def test_bucket_validation():
    with pytest.raises(ValueError):
        TokenBucket(rate_per_second=0.0)
    with pytest.raises(ValueError):
        TokenBucket(rate_per_second=1.0, burst=0.5)
    bucket = TokenBucket(rate_per_second=1.0, burst=2.0)
    with pytest.raises(ValueError):
        bucket.try_acquire(0)
    with pytest.raises(ValueError):
        bucket.try_acquire(3.0)


# ----------------------------------------------------------------------
# Credit accounts
# ----------------------------------------------------------------------
def test_account_postpaid_overdraw_then_refusal():
    account = CreditAccount("t", credits_usd=1.0)
    assert account.admissible
    assert account.debit(0.75) == pytest.approx(0.25)
    assert account.admissible
    assert account.debit(0.75) == pytest.approx(-0.5)  # one overdraw
    assert not account.admissible
    account.deposit(1.0)
    assert account.admissible


def test_unmetered_account_always_admissible_until_deposit():
    account = CreditAccount("t")
    assert account.unmetered and account.admissible
    assert account.debit(100.0) == 0.0  # unmetered: nothing to draw down
    assert account.admissible
    account.deposit(0.5)  # converts to metered
    assert not account.unmetered
    account.debit(1.0)
    assert not account.admissible


def test_account_validation():
    with pytest.raises(ValueError):
        CreditAccount("t", credits_usd=-1.0)
    account = CreditAccount("t", credits_usd=1.0)
    with pytest.raises(ValueError):
        account.debit(-0.5)
    with pytest.raises(ValueError):
        account.deposit(-0.5)


# ----------------------------------------------------------------------
# Ledger
# ----------------------------------------------------------------------
def test_ledger_sequences_totals_and_bounded_history():
    ledger = Ledger(history_limit=2)
    for index in range(3):
        entry = ledger.record("t", user="U", sql=f"q{index}",
                              cost_usd=0.25, wall_seconds=0.01,
                              dispatch_sequence=index + 10)
        assert entry.sequence == index + 1
    ledger.record("t", user="U", sql="q3", cost_usd=0.0, wall_seconds=0,
                  status="failed")
    assert ledger.spend_usd("t") == pytest.approx(0.75)  # all of them
    assert ledger.query_count("t") == 4
    retained = ledger.entries("t")
    assert [entry.sql for entry in retained] == ["q2", "q3"]
    assert retained[0].dispatch_sequence == 12
    # Lifetime totals per (tenant, status): the gateway's counters.
    assert ledger.lifetime() == {("t", "completed"): (3, 0.75),
                                 ("t", "failed"): (1, 0.0)}


def test_ledger_merges_all_entries_in_sequence_order():
    ledger = Ledger()
    ledger.record("a", user="U", sql="1", cost_usd=0.0, wall_seconds=0)
    ledger.record("b", user="U", sql="2", cost_usd=0.0, wall_seconds=0)
    ledger.record("a", user="U", sql="3", cost_usd=0.0, wall_seconds=0)
    assert [e.sql for e in ledger.all_entries()] == ["1", "2", "3"]


# ----------------------------------------------------------------------
# The combined tenant quota gate
# ----------------------------------------------------------------------
def test_quota_rate_refusal_carries_refill_time_and_spend():
    clock = FakeClock()
    ledger = Ledger()
    quota = TenantQuota("t", rate_per_second=1.0, burst=1.0, clock=clock)
    quota.check(ledger)  # takes the only token
    ledger.record("t", user="U", sql="q", cost_usd=0.125, wall_seconds=0)
    with pytest.raises(QuotaExceeded) as excinfo:
        quota.check(ledger)
    refusal = excinfo.value
    assert refusal.reason == "rate"
    assert refusal.tenant == "t"
    assert refusal.retry_after_seconds == pytest.approx(1.0)
    assert refusal.spent_usd == pytest.approx(0.125)
    clock.advance(1.0)
    quota.check(ledger)  # token came back


def test_quota_credit_refusal_takes_no_rate_token():
    clock = FakeClock()
    ledger = Ledger()
    quota = TenantQuota("t", rate_per_second=1.0, burst=1.0,
                        credits_usd=0.5, clock=clock)
    quota.check(ledger)
    quota.settle(0.75)  # overdraws
    ledger.record("t", user="U", sql="q", cost_usd=0.75, wall_seconds=0)
    clock.advance(10.0)  # bucket is full again — credits still gate
    with pytest.raises(QuotaExceeded) as excinfo:
        quota.check(ledger)
    assert excinfo.value.reason == "credits"
    assert excinfo.value.retry_after_seconds is None
    assert excinfo.value.spent_usd == pytest.approx(0.75)
    assert quota.bucket.available() == pytest.approx(1.0)  # untouched


def test_quota_unlimited_dimensions():
    ledger = Ledger()
    quota = TenantQuota("t")  # no rate, no credits
    for _ in range(100):
        quota.check(ledger)
