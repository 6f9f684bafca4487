"""Deterministic unit tests for the circuit breaker, the backoff and
the retry loop.

Every test drives :class:`HealthRegistry` with a fake, manually
advanced clock — no wall-clock sleeps — so the closed → open →
half-open → closed transitions are exact.
"""

import pytest

from repro.core.budget import CancellationToken
from repro.distributed.health import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    HealthRegistry,
)
from repro.distributed.retry import FragmentFailed, backoff, run_with_retries
from repro.distributed.runtime import ExecutionTrace
from repro.exceptions import ProviderDeadError, TransientProviderError


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def registry(clock):
    # Three consecutive errors trip it; it stays open for 0.5 s and then
    # admits one probe at a time.
    return HealthRegistry(clock)


class TestBreakerTransitions:
    def test_starts_closed_and_admits(self, registry):
        assert registry.state("Y") == CLOSED
        assert registry.admit("Y")
        assert registry.available("Y")

    def test_failures_below_threshold_stay_closed(self, registry):
        assert not registry.record_failure("Y")
        assert not registry.record_failure("Y")
        assert registry.state("Y") == CLOSED
        assert registry.admit("Y")

    def test_threshold_trips_open(self, registry):
        registry.record_failure("Y")
        registry.record_failure("Y")
        assert registry.record_failure("Y")  # third consecutive error
        assert registry.state("Y") == OPEN
        assert registry.subject("Y").breaker_trips == 1

    def test_success_resets_consecutive_errors(self, registry):
        registry.record_failure("Y")
        registry.record_failure("Y")
        registry.record_success("Y")
        registry.record_failure("Y")
        registry.record_failure("Y")
        assert registry.state("Y") == CLOSED

    def test_fatal_failure_trips_immediately(self, registry):
        assert registry.record_failure("Y", fatal=True)
        assert registry.state("Y") == OPEN

    def test_open_refuses_until_reset_timeout(self, registry, clock):
        for _ in range(3):
            registry.record_failure("Y")
        assert not registry.admit("Y")
        assert not registry.available("Y")
        clock.advance(0.49)
        assert not registry.admit("Y")
        clock.advance(0.02)  # past reset_timeout_seconds
        assert registry.available("Y")
        assert registry.admit("Y")
        assert registry.state("Y") == HALF_OPEN

    def test_half_open_admits_exactly_probe_budget(self, registry, clock):
        for _ in range(3):
            registry.record_failure("Y")
        clock.advance(1.0)
        assert registry.admit("Y")
        assert not registry.admit("Y")  # the one probe slot is taken
        assert not registry.available("Y")

    def test_probe_success_closes_breaker(self, registry, clock):
        for _ in range(3):
            registry.record_failure("Y")
        clock.advance(1.0)
        assert registry.admit("Y")
        registry.record_success("Y", latency_seconds=0.01)
        assert registry.state("Y") == CLOSED
        assert registry.admit("Y")
        assert registry.subject("Y").consecutive_errors == 0

    def test_probe_failure_reopens_and_restarts_timeout(self, registry,
                                                        clock):
        for _ in range(3):
            registry.record_failure("Y")
        clock.advance(1.0)
        assert registry.admit("Y")
        assert registry.record_failure("Y")  # probe disproved recovery
        assert registry.state("Y") == OPEN
        assert registry.subject("Y").breaker_trips == 2
        assert not registry.admit("Y")  # timeout restarted at trip time
        clock.advance(0.51)
        assert registry.admit("Y")
        assert registry.state("Y") == HALF_OPEN

    def test_release_probe_frees_slot_without_verdict(self, registry,
                                                      clock):
        for _ in range(3):
            registry.record_failure("Y")
        clock.advance(1.0)
        assert registry.admit("Y")
        assert not registry.admit("Y")
        registry.release_probe("Y")
        assert registry.admit("Y")
        assert registry.state("Y") == HALF_OPEN


class TestDeathAndRevival:
    def test_mark_dead_refuses_forever(self, registry, clock):
        assert registry.mark_dead("Y")
        assert not registry.mark_dead("Y")  # already dead
        assert registry.is_dead("Y")
        assert not registry.admit("Y")
        clock.advance(1e6)
        assert not registry.admit("Y")
        assert not registry.available("Y")

    def test_revive_restores_closed_breaker(self, registry):
        registry.mark_dead("Y")
        registry.revive("Y")
        assert not registry.is_dead("Y")
        assert registry.state("Y") == CLOSED
        assert registry.admit("Y")

    def test_unavailable_subjects(self, registry):
        registry.record_success("X", 0.01)
        registry.mark_dead("Y")
        for _ in range(3):
            registry.record_failure("Z")
        assert registry.unavailable_subjects() == frozenset({"Y", "Z"})


class TestLatencyEwma:
    def test_first_observation_seeds_ewma(self, registry):
        assert registry.latency_hint("Y") == 0.0
        registry.record_success("Y", 0.10)
        assert registry.latency_hint("Y") == pytest.approx(0.10)

    def test_ewma_update(self, registry):
        # The newest sample weighs 0.2.
        registry.record_success("Y", 0.10)
        registry.record_success("Y", 0.20)
        assert registry.latency_hint("Y") == pytest.approx(0.12)
        registry.record_success("Y", 0.05)
        assert registry.latency_hint("Y") == pytest.approx(0.106)

    def test_snapshot_shape(self, registry):
        registry.record_success("Y", 0.01)
        registry.record_failure("X")
        snap = registry.snapshot()
        assert set(snap) == {"X", "Y"}
        assert snap["Y"]["state"] == CLOSED
        assert snap["Y"]["successes"] == 1
        assert snap["X"]["failures"] == 1
        assert snap["X"]["dead"] is False


class TestBackoff:
    #: 20 ms doubling per retry up to one second, before jitter.
    RAW = {1: 0.02, 2: 0.04, 3: 0.08, 4: 0.16, 5: 0.32, 6: 0.64, 7: 1.0,
           10: 1.0}

    def test_backoff_grows_exponentially_to_cap(self):
        for attempt, raw in self.RAW.items():
            assert raw * 0.75 <= backoff(attempt) <= raw

    def test_jitter_is_deterministic_and_bounded(self):
        for attempt in (1, 2, 3):
            for salt in ("reqX:Y", "reqZ:Z", ""):
                a = backoff(attempt, salt=salt)
                assert a == backoff(attempt, salt=salt)  # same inputs
                assert self.RAW[attempt] * 0.75 <= a <= self.RAW[attempt]

    def test_distinct_salts_desynchronize(self):
        delays = {backoff(1, salt=f"frag{i}") for i in range(8)}
        assert len(delays) > 1


class TestRunWithRetries:
    """The retry loop on its own: an attempt is any callable."""

    def run(self, registry, clock, attempt, trace):
        return run_with_retries(
            "Y", "reqY", attempt, health=registry,
            clock=clock, sleep=clock.advance,
            token=CancellationToken(clock=clock), trace=trace)

    def test_transient_twice_then_success(self, registry, clock):
        trace = ExecutionTrace()
        outcomes = [TransientProviderError("slow"),
                    TransientProviderError("slow"), "done"]

        def attempt():
            outcome = outcomes.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        assert self.run(registry, clock, attempt, trace) == "done"
        assert (trace.attempts, trace.retries) == (3, 2)
        # Two backoffs, salted with the fragment label and the subject.
        assert clock.now == pytest.approx(
            backoff(1, salt="reqY:Y") + backoff(2, salt="reqY:Y"))
        assert trace.executions == [("Y", 0.0)]  # the success, timed
        assert registry.subject("Y").consecutive_errors == 0

    def test_exhausted_attempts_fail_the_fragment(self, registry, clock):
        trace = ExecutionTrace()

        def attempt():
            raise TransientProviderError("slow")

        with pytest.raises(FragmentFailed) as failed:
            self.run(registry, clock, attempt, trace)
        assert (failed.value.subject, failed.value.attempts) == ("Y", 3)
        assert (trace.attempts, trace.retries) == (3, 2)

    def test_tripping_the_breaker_ends_the_retries(self, registry, clock):
        registry.record_failure("Y")
        registry.record_failure("Y")
        trace = ExecutionTrace()

        def attempt():
            raise TransientProviderError("slow")

        with pytest.raises(FragmentFailed) as failed:
            self.run(registry, clock, attempt, trace)
        # The third consecutive error opens the breaker: no retry waits
        # on a subject that is out of rotation.
        assert failed.value.attempts == 1
        assert (trace.attempts, trace.retries, trace.breaker_trips) \
            == (1, 0, 1)
        assert clock.now == 0.0
        assert registry.state("Y") == OPEN

    def test_open_breaker_fails_before_any_attempt(self, registry, clock):
        for _ in range(3):
            registry.record_failure("Y")
        trace = ExecutionTrace()
        calls = []

        with pytest.raises(FragmentFailed) as failed:
            self.run(registry, clock, lambda: calls.append(1), trace)
        assert calls == []
        assert failed.value.attempts == 0
        assert isinstance(failed.value.cause, ProviderDeadError)
        assert trace.attempts == 0

    def test_dead_provider_is_not_retried(self, registry, clock):
        trace = ExecutionTrace()
        calls = []

        def attempt():
            calls.append(1)
            raise ProviderDeadError("gone", subject="Y")

        with pytest.raises(FragmentFailed) as failed:
            self.run(registry, clock, attempt, trace)
        assert calls == [1]
        assert failed.value.attempts == 1
        assert (trace.retries, trace.breaker_trips) == (0, 1)
        assert registry.is_dead("Y")
        assert clock.now == 0.0  # no backoff before giving up

    def test_other_exceptions_release_the_probe_and_are_not_retried(
            self, registry, clock):
        for _ in range(3):
            registry.record_failure("Y")
        clock.advance(0.5)  # the next admit is the half-open probe
        trace = ExecutionTrace()
        calls = []

        def attempt():
            calls.append(registry.subject("Y").probes_in_flight)
            raise ValueError("not the provider's fault")

        with pytest.raises(ValueError):
            self.run(registry, clock, attempt, trace)
        assert calls == [1]
        assert (trace.attempts, trace.retries) == (1, 0)
        assert registry.state("Y") == HALF_OPEN
        assert registry.subject("Y").probes_in_flight == 0
