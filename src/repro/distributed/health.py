"""Per-provider health state and circuit breakers for the runtime.

Every fragment execution feeds a :class:`HealthRegistry`: successes
update a latency EWMA (:data:`EWMA_ALPHA`) and reset the
consecutive-error count, failures increment it, and reaching
:data:`FAILURE_THRESHOLD` trips the subject's circuit breaker.  The
breaker is the classic three-state machine:

``closed``
    Normal operation; every execution is admitted.
``open``
    The subject is out of rotation.  ``admit`` refuses execution until
    :data:`RESET_TIMEOUT_SECONDS` have elapsed since the trip, at which
    point the breaker moves to half-open.
``half_open``
    At most :data:`HALF_OPEN_PROBES` concurrent probe executions are
    admitted.  A probe success closes the breaker (full recovery); a
    probe failure re-opens it and restarts the timeout.

A subject can also be marked *dead* (a permanent provider loss, fed by
:class:`~repro.distributed.faults.FaultInjector` or repeated fatal
errors): a dead subject is never admitted again until ``revive``.

Time is injected: the registry only ever reads the ``clock`` callable
it was constructed with, so breaker transitions are unit-testable with
a fake clock instead of wall-clock sleeps.  All methods are
thread-safe — concurrent runs feed the registry from many threads at
once.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

#: Circuit breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Weight of the newest latency sample in the EWMA, in (0, 1].
EWMA_ALPHA = 0.2
#: Consecutive errors that trip a closed breaker.
FAILURE_THRESHOLD = 3
#: Seconds an open breaker waits before admitting a probe.
RESET_TIMEOUT_SECONDS = 0.5
#: Probe executions a half-open breaker admits at once.
HALF_OPEN_PROBES = 1


@dataclass
class SubjectHealth:
    """Mutable health record of one provider subject."""

    subject: str
    state: str = CLOSED
    latency_ewma_seconds: float | None = None
    consecutive_errors: int = 0
    successes: int = 0
    failures: int = 0
    breaker_trips: int = 0
    opened_at: float = 0.0
    probes_in_flight: int = 0
    dead: bool = False

    def snapshot(self) -> dict[str, object]:
        return {
            "state": self.state,
            "dead": self.dead,
            "latency_ewma_seconds": self.latency_ewma_seconds,
            "consecutive_errors": self.consecutive_errors,
            "successes": self.successes,
            "failures": self.failures,
            "breaker_trips": self.breaker_trips,
        }


class HealthRegistry:
    """Thread-safe per-subject health state + circuit breakers."""

    def __init__(self, clock=time.monotonic) -> None:
        self._clock = clock
        self._subjects: dict[str, SubjectHealth] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def subject(self, name: str) -> SubjectHealth:
        """The (live, mutable) health record for ``name``."""
        with self._lock:
            return self._record(name)

    def _record(self, name: str) -> SubjectHealth:
        record = self._subjects.get(name)
        if record is None:
            record = SubjectHealth(subject=name)
            self._subjects[name] = record
        return record

    def state(self, name: str) -> str:
        return self.subject(name).state

    def is_dead(self, name: str) -> bool:
        return self.subject(name).dead

    def latency_hint(self, name: str) -> float:
        """EWMA latency for candidate ordering (0.0 when unobserved)."""
        ewma = self.subject(name).latency_ewma_seconds
        return 0.0 if ewma is None else ewma

    def available(self, name: str) -> bool:
        """Whether an execution *could* currently be admitted.

        Unlike :meth:`admit` this never mutates state: an open breaker
        past its reset timeout counts as available (a probe would be
        admitted), a dead subject never does.
        """
        with self._lock:
            record = self._record(name)
            if record.dead:
                return False
            if record.state == CLOSED:
                return True
            if record.state == OPEN:
                return (self._clock() - record.opened_at
                        >= RESET_TIMEOUT_SECONDS)
            return record.probes_in_flight < HALF_OPEN_PROBES

    def unavailable_subjects(self) -> frozenset[str]:
        """Subjects failover planning must route around right now."""
        with self._lock:
            names = list(self._subjects)
        return frozenset(n for n in names if not self.available(n))

    def snapshot(self) -> dict[str, dict[str, object]]:
        """Point-in-time copy of every record (``health_info()`` body)."""
        with self._lock:
            return {name: record.snapshot()
                    for name, record in sorted(self._subjects.items())}

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------
    def admit(self, name: str) -> bool:
        """Whether one execution may proceed now; reserves probe slots.

        In ``half_open`` (including an ``open`` breaker whose timeout
        just elapsed) an admission reserves one of the probe slots; the
        subsequent :meth:`record_success` / :meth:`record_failure` (or
        :meth:`release_probe` on a non-verdict exit) releases it.
        """
        with self._lock:
            record = self._record(name)
            if record.dead:
                return False
            if record.state == OPEN:
                if (self._clock() - record.opened_at
                        < RESET_TIMEOUT_SECONDS):
                    return False
                record.state = HALF_OPEN
                record.probes_in_flight = 0
            if record.state == HALF_OPEN:
                if record.probes_in_flight >= HALF_OPEN_PROBES:
                    return False
                record.probes_in_flight += 1
            return True

    def record_success(self, name: str,
                       latency_seconds: float | None = None) -> None:
        """An execution finished cleanly; closes a half-open breaker."""
        with self._lock:
            record = self._record(name)
            record.successes += 1
            record.consecutive_errors = 0
            if latency_seconds is not None:
                if record.latency_ewma_seconds is None:
                    record.latency_ewma_seconds = latency_seconds
                else:
                    record.latency_ewma_seconds = (
                        EWMA_ALPHA * latency_seconds
                        + (1.0 - EWMA_ALPHA) * record.latency_ewma_seconds
                    )
            if record.probes_in_flight > 0:
                record.probes_in_flight -= 1
            if record.state != CLOSED:
                record.state = CLOSED
                record.probes_in_flight = 0

    def record_failure(self, name: str, *, fatal: bool = False) -> bool:
        """An execution failed; returns True when the breaker tripped.

        A failure in ``half_open`` re-opens immediately (the probe
        disproved recovery); in ``closed``, reaching
        :data:`FAILURE_THRESHOLD` consecutive errors — or any ``fatal``
        failure — trips the breaker open.
        """
        with self._lock:
            record = self._record(name)
            record.failures += 1
            record.consecutive_errors += 1
            if record.probes_in_flight > 0:
                record.probes_in_flight -= 1
            if record.state == OPEN:
                return False
            tripped = (
                record.state == HALF_OPEN
                or fatal
                or record.consecutive_errors >= FAILURE_THRESHOLD
            )
            if tripped:
                record.state = OPEN
                record.opened_at = self._clock()
                record.probes_in_flight = 0
                record.breaker_trips += 1
            return tripped

    def release_probe(self, name: str) -> None:
        """Release a probe slot reserved by :meth:`admit` without a verdict.

        For executions that exit through an exception that says nothing
        about provider health (e.g. an authorization violation).
        """
        with self._lock:
            record = self._record(name)
            if record.probes_in_flight > 0:
                record.probes_in_flight -= 1

    def mark_dead(self, name: str) -> bool:
        """Permanent provider loss; returns True on the dead transition."""
        with self._lock:
            record = self._record(name)
            if record.dead:
                return False
            record.dead = True
            if record.state != OPEN:
                record.state = OPEN
                record.opened_at = self._clock()
                record.breaker_trips += 1
            record.probes_in_flight = 0
            return True

    def revive(self, name: str) -> None:
        """Bring a dead subject back (fresh closed breaker)."""
        with self._lock:
            record = self._record(name)
            record.dead = False
            record.state = CLOSED
            record.consecutive_errors = 0
            record.probes_in_flight = 0
