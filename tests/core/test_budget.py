"""Budget primitives: QueryBudget, CancellationToken, backoff clamping."""

from __future__ import annotations

import threading

import pytest

from repro.core.budget import (
    CancellationToken,
    QueryBudget,
    active_token,
    token_scope,
)
from repro.distributed.retry import backoff
from repro.exceptions import (
    DeadlineExceededError,
    QueryAbortedError,
    QueryCancelledError,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# QueryBudget
# ----------------------------------------------------------------------
def test_budget_validates_fields():
    with pytest.raises(ValueError, match="deadline_seconds"):
        QueryBudget(deadline_seconds=0.0)
    with pytest.raises(ValueError, match="deadline_seconds"):
        QueryBudget(deadline_seconds=-1.0)
    with pytest.raises(ValueError, match="cost_ceiling_usd"):
        QueryBudget(cost_ceiling_usd=-0.5)
    assert QueryBudget().unlimited
    assert not QueryBudget(deadline_seconds=1.0).unlimited
    assert not QueryBudget(cost_ceiling_usd=1.0).unlimited


# ----------------------------------------------------------------------
# CancellationToken — deadline arithmetic
# ----------------------------------------------------------------------
def test_unbudgeted_token_never_expires():
    clock = FakeClock()
    token = CancellationToken(clock=clock)
    clock.advance(1e9)
    assert not token.expired()
    assert token.remaining_seconds() is None
    assert token.remaining_fraction() is None
    token.check("anywhere")  # must not raise


def test_deadline_countdown_and_expiry():
    clock = FakeClock()
    token = CancellationToken(QueryBudget(deadline_seconds=2.0),
                              clock=clock)
    assert token.remaining_seconds() == pytest.approx(2.0)
    clock.advance(1.5)
    assert token.remaining_seconds() == pytest.approx(0.5)
    assert token.remaining_fraction() == pytest.approx(0.25)
    assert not token.expired()
    clock.advance(1.0)
    assert token.expired()
    assert token.remaining_seconds() == 0.0
    assert token.remaining_fraction() == 0.0
    with pytest.raises(DeadlineExceededError) as excinfo:
        token.check("runtime:fragment f1")
    assert excinfo.value.where == "runtime:fragment f1"
    assert excinfo.value.deadline_seconds == pytest.approx(2.0)
    assert excinfo.value.elapsed_seconds == pytest.approx(2.5)
    assert isinstance(excinfo.value, QueryAbortedError)


def test_clamp_bounds_sleeps_to_remaining_budget():
    clock = FakeClock()
    token = CancellationToken(QueryBudget(deadline_seconds=1.0),
                              clock=clock)
    assert token.clamp(10.0) == pytest.approx(1.0)
    assert token.clamp(0.2) == pytest.approx(0.2)
    clock.advance(2.0)
    assert token.clamp(10.0) == 0.0
    unbounded = CancellationToken(clock=clock)
    assert unbounded.clamp(10.0) == pytest.approx(10.0)


# ----------------------------------------------------------------------
# CancellationToken — cancellation
# ----------------------------------------------------------------------
def test_cancel_raises_at_next_checkpoint_with_reason():
    token = CancellationToken()
    token.cancel("user hit ctrl-c")
    assert token.cancelled
    assert token.cancel_reason == "user hit ctrl-c"
    with pytest.raises(QueryCancelledError) as excinfo:
        token.check("pool:chunk 3/8")
    assert excinfo.value.where == "pool:chunk 3/8"
    assert "user hit ctrl-c" in str(excinfo.value)


def test_cancel_is_idempotent_first_reason_wins():
    token = CancellationToken()
    token.cancel("first")
    token.cancel("second")
    assert token.cancel_reason == "first"


def test_cancellation_wins_over_expiry():
    clock = FakeClock()
    token = CancellationToken(QueryBudget(deadline_seconds=1.0),
                              clock=clock)
    clock.advance(5.0)
    token.cancel()
    with pytest.raises(QueryCancelledError):
        token.check("anywhere")


# ----------------------------------------------------------------------
# Thread-local scope
# ----------------------------------------------------------------------
def test_token_scope_installs_and_restores():
    assert active_token() is None
    outer, inner = CancellationToken(), CancellationToken()
    with token_scope(outer):
        assert active_token() is outer
        with token_scope(inner):
            assert active_token() is inner
        assert active_token() is outer
    assert active_token() is None


def test_token_scope_is_thread_local():
    token = CancellationToken()
    seen: list[CancellationToken | None] = []
    with token_scope(token):
        worker = threading.Thread(target=lambda: seen.append(active_token()))
        worker.start()
        worker.join()
    assert seen == [None]


# ----------------------------------------------------------------------
# Backoff clamping
# ----------------------------------------------------------------------
def test_backoff_clamps_to_remaining_budget():
    full = backoff(7)  # capped at one second, less its jitter
    assert 0.75 <= full <= 1.0
    assert backoff(7, remaining_seconds=0.5) == 0.5
    assert backoff(7, remaining_seconds=10.0) == full
    assert backoff(7, remaining_seconds=0.0) == 0.0
    assert backoff(7, remaining_seconds=-3.0) == 0.0
