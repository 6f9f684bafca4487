"""The retry loop: which failures repeat, which lose the provider.

Providers are treated as unreliable production services.  Every attempt
feeds a per-subject :class:`~repro.distributed.health.HealthRegistry`
(latency EWMA, consecutive errors, a closed/open/half-open circuit
breaker).  :func:`run_with_retries` knows nothing of plans, envelopes or
executors — one attempt is an opaque callable — and classifies its
failures strictly:

* :class:`~repro.exceptions.TransientProviderError` is the **only**
  retryable failure.  It is retried on the same subject with bounded
  exponential backoff and deterministic jitter
  (:class:`~repro.distributed.health.RetryPolicy`).  There is one
  deadline, the query's: the ``token`` is checked before every attempt
  and the backoff sleep is clamped to its remaining budget.
* :class:`~repro.exceptions.ProviderDeadError`, an open breaker or an
  exhausted attempt budget raise :class:`FragmentFailed`, which the
  runtime escalates to mid-query failover.
* Anything else propagates untouched and unretried, after releasing any
  half-open probe slot: envelope tampering/spoofing
  (:class:`~repro.exceptions.DispatchError`), authorization violations
  (:class:`~repro.exceptions.UnauthorizedError`) and executor bugs are
  not faults that repeat their way to success, and a budget abort
  (:class:`~repro.exceptions.QueryAbortedError`) says nothing about the
  provider's health.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from repro.core.budget import CancellationToken
from repro.distributed.health import HealthRegistry, RetryPolicy
from repro.exceptions import ProviderDeadError, TransientProviderError

T = TypeVar("T")


class FragmentFailed(Exception):
    """Internal control flow: a fragment exhausted its subject.

    Raised out of ``DistributedRuntime._evaluate_fragment`` *while the
    subject lock is held*; the recursion catches it after releasing the
    lock and runs failover lock-free (the replacement takes its own
    subject lock), so the failovers of two concurrent runs can never
    deadlock on each other's subject locks.  Never escapes ``run``.
    """

    def __init__(self, subject: str, attempts: int,
                 cause: Exception | None = None) -> None:
        super().__init__(f"fragment failed at {subject}")
        self.subject = subject
        self.attempts = attempts
        self.cause = cause


def run_with_retries(subject: str, label: str, attempt: Callable[[], T], *,
                     health: HealthRegistry, retry: RetryPolicy,
                     clock: Callable[[], float],
                     sleep: Callable[[float], None],
                     token: CancellationToken | None, trace,
                     observe: Callable[[str, float], None] | None) -> T:
    """``attempt()`` on ``subject``, absorbing transient faults.

    ``label`` names the work in checkpoints and salts the jitter;
    ``trace`` counts ``attempts`` / ``retries`` / ``breaker_trips``;
    ``observe(subject, seconds)`` sees each success's wall time (the same
    measurement that feeds the health registry's EWMA).
    """
    attempts = 0
    while True:
        if token is not None:
            token.check(f"runtime:fragment {label} attempt {attempts + 1}")
        if not health.admit(subject):
            raise FragmentFailed(
                subject, attempts,
                cause=ProviderDeadError(
                    f"provider {subject} is out of rotation "
                    f"(breaker {health.state(subject)})",
                    subject=subject))
        attempts += 1
        trace.attempts += 1
        started = clock()
        try:
            result = attempt()
        except TransientProviderError as fault:
            if health.record_failure(subject):
                trace.breaker_trips += 1
            if (attempts >= retry.max_attempts
                    or not health.available(subject)):
                raise FragmentFailed(subject, attempts, cause=fault)
            trace.retries += 1
            # The backoff sleep draws from the remaining end-to-end
            # query budget and cannot overshoot it.
            sleep(retry.backoff(
                attempts, salt=f"{label}:{subject}",
                remaining_seconds=None if token is None
                else token.remaining_seconds()))
            continue
        except ProviderDeadError as fault:
            if health.mark_dead(subject):
                trace.breaker_trips += 1
            raise FragmentFailed(subject, attempts, cause=fault)
        except Exception:
            # No health verdict: the failure says nothing about the
            # provider (e.g. an authorization violation raised by
            # our own enforcement).  Just release any probe slot.
            health.release_probe(subject)
            raise
        elapsed = clock() - started
        health.record_success(subject, elapsed)
        if observe is not None:
            observe(subject, elapsed)
        return result
