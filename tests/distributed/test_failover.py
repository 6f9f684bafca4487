"""Failover integration tests: retries, takeover, standby, re-plan.

Each test runs the running-example query through a :class:`QueryService`
wired with a deterministic :class:`FaultInjector` and a no-op sleeper
(retry backoff and simulated latency cost no wall-clock time), then
checks the recovery invariants from the failover contract:

* recovered results are bit-identical to the fault-free run;
* every re-dispatch target passed :func:`verify_assignment`
  (re-checked here, independently of the runtime);
* tampering/spoofing is never retried or failed over;
* a dead data authority is unrecoverable.
"""

import time

import pytest

from repro.core.visibility import verify_assignment
from repro.distributed import FaultInjector, build_runtime
from repro.distributed import runtime as runtime_module
from repro.engine import Table
from repro.exceptions import (
    CryptoError,
    DispatchError,
    UnrecoverableAssignmentError,
)
from repro.paper_example import build_running_example
from repro.service import QueryService

SQL = ("select T, avg(P) from Hosp join Ins on S=C "
       "where D='stroke' group by T having avg(P)>100")


def make_tables(rows=30):
    hosp = Table("Hosp", ("S", "B", "D", "T"), [
        (f"s{i}", 1950 + i % 50, "stroke" if i % 3 else "flu",
         "tpa" if i % 2 else "surgery") for i in range(rows)])
    ins = Table("Ins", ("C", "P"), [(f"s{i}", 40.0 + 7.0 * (i % 30))
                                    for i in range(rows)])
    return {"H": {"Hosp": hosp}, "I": {"Ins": ins}}


def make_service(injector=None, **kwargs):
    example = build_running_example()
    kwargs.setdefault("sleeper", lambda seconds: None)
    return QueryService(example.schema, example.policy, example.subjects,
                        example.owners, make_tables(), user="U",
                        fault_injector=injector, **kwargs)


@pytest.fixture(scope="module")
def clean_outcome():
    """Fault-free reference run (fresh service, no injector)."""
    return make_service().execute(SQL)


def compute_victim(outcome, *, user="U"):
    """A killable compute subject from the chosen assignment.

    Data authorities cannot fail over (their stored relations are not
    reassignable) and the querying user is the last-resort assignee, so
    the interesting victim is a third-party compute provider actually
    chosen by the planner.
    """
    assigned = set(outcome.assignment.extended.assignment.values())
    victims = sorted(s for s in assigned if s not in {"H", "I", user})
    assert victims, "planner assigned only authorities/user?"
    return victims[0]


def assert_rows_equal(a: Table, b: Table):
    assert a.columns == b.columns
    assert sorted(a.rows) == sorted(b.rows)


class TestRetries:
    def test_transient_fault_retried_without_failover(self, clean_outcome):
        victim = compute_victim(clean_outcome)
        injector = FaultInjector(seed=3)
        injector.set_fault(victim, crash_on_call=1)
        outcome = make_service(injector).execute(SQL)
        assert outcome.retries >= 1
        assert not outcome.failed_over
        assert outcome.failovers == ()
        assert_rows_equal(outcome.result, clean_outcome.result)

    def test_injected_sleeper_absorbs_latency(self):
        # Satellite: simulated provider latency goes through the
        # injected sleeper, not a real time.sleep.
        recorded = []
        service = make_service(latency_seconds=5.0,
                               sleeper=recorded.append)
        started = time.monotonic()
        outcome = service.execute(SQL)
        assert time.monotonic() - started < 2.0
        assert 5.0 in recorded
        assert len(outcome.result) > 0


class TestInPlaceTakeover:
    def test_dead_provider_triggers_verified_takeover(self, clean_outcome):
        victim = compute_victim(clean_outcome)
        injector = FaultInjector(seed=5)
        service = make_service(injector)
        # The provider dies mid-stream (distinct SQL per query, so none
        # rides the fragment cache): nothing fails over before the kill.
        stream = [SQL.replace(">100", f">{threshold}")
                  for threshold in (101, 102, 103, 104)]
        for sql in stream[:2]:
            before = service.execute(sql)
            assert not before.failed_over and before.failovers == ()
        injector.kill(victim)
        outcome = service.execute(SQL)

        assert outcome.failed_over
        assert outcome.failovers, "expected an in-place fragment takeover"
        assert_rows_equal(outcome.result, clean_outcome.result)
        for event in outcome.failovers:
            assert event.failed_subject == victim
            assert event.replacement != victim
            # Independent audit: the repaired assignment must satisfy
            # Definition 4.2 on the extended plan under the live policy.
            verify_assignment(outcome.assignment.extended.plan,
                              service.policy, event.repaired_assignment)
        assert outcome.breaker_trips >= 1
        assert outcome.failover_seconds >= 0.0
        # No later query names the dead provider as a replacement.
        for sql in stream[2:]:
            later = service.execute(sql)
            assert later.failed_over
            assert victim not in {e.replacement for e in later.failovers}
        # The recovery is visible in the human-readable trace line.
        assert "failover[" in outcome.describe()

    def test_health_info_reports_dead_subject(self, clean_outcome):
        victim = compute_victim(clean_outcome)
        injector = FaultInjector(seed=5)
        injector.kill(victim)
        service = make_service(injector)
        service.execute(SQL)
        info = service.health_info()
        assert info[victim]["dead"] is True
        assert info[victim]["state"] == "open"

    def test_all_compute_providers_dead_still_recovers(self, clean_outcome):
        injector = FaultInjector(seed=5)
        for name in ("X", "Y", "Z"):
            injector.kill(name)
        outcome = make_service(injector).execute(SQL)
        assert outcome.failed_over
        assert_rows_equal(outcome.result, clean_outcome.result)
        survivors = set(outcome.failovers and {
            e.replacement for e in outcome.failovers} or set())
        assert not survivors & {"X", "Y", "Z"}


class TestServiceTierRepair:
    def test_runtime_failover_disabled_uses_standby_or_replan(
            self, clean_outcome):
        # With in-place takeover switched off the runtime escalates
        # ProviderUnavailableError and the service tier must recover
        # via a warm standby plan or a full re-plan.
        victim = compute_victim(clean_outcome)
        injector = FaultInjector(seed=5)
        injector.kill(victim)
        outcome = make_service(injector, failover=False).execute(SQL)
        assert outcome.failed_over
        assert outcome.standby_used or outcome.replanned
        assert outcome.failovers == ()  # no runtime-level takeover ran
        assert_rows_equal(outcome.result, clean_outcome.result)
        assert victim not in set(
            outcome.assignment.extended.assignment.values())

    def test_dead_data_authority_is_unrecoverable(self):
        injector = FaultInjector(seed=5)
        injector.kill("H")  # owner of Hosp: its data cannot move
        with pytest.raises(UnrecoverableAssignmentError,
                           match="data authority"):
            make_service(injector).execute(SQL)


class FakeClock:
    """Time that only moves when somebody sleeps on it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class TestOneClock:
    @pytest.mark.parametrize("takeover", (True, False),
                             ids=("takeover", "standby-or-replan"))
    def test_wall_and_failover_seconds_read_the_injected_clock(
            self, clean_outcome, takeover):
        """Half a (fake) second of provider latency per fragment, slept
        on a clock that nothing else moves: the query took exactly the
        time that was slept, and recovery exactly the time from the loss
        of the provider to delivery — whichever tier recovered.  Read on
        any other clock, both are a few real milliseconds."""
        victim = compute_victim(clean_outcome)
        injector = FaultInjector(seed=5)
        injector.kill(victim)
        clock = FakeClock()
        lost_at = []
        on_execute = injector.on_execute

        def watched(subject):
            if subject == victim and not lost_at:
                lost_at.append(clock.now)
            return on_execute(subject)

        injector.on_execute = watched
        outcome = make_service(
            injector, failover=takeover, clock=clock, sleeper=clock.sleep,
            latency_seconds=0.5).execute(SQL)
        assert outcome.failed_over and bool(outcome.failovers) == takeover
        assert_rows_equal(outcome.result, clean_outcome.result)
        assert 0.0 < lost_at[0] < clock.now
        assert outcome.wall_seconds == clock.now
        assert outcome.failover_seconds == clock.now - lost_at[0]


class TestEnforcementNeverRetried:
    def test_tampered_envelope_raises_and_is_not_retried(self, monkeypatch):
        injector = FaultInjector(seed=9)
        service = make_service(injector)
        original = runtime_module.seal_envelope

        def tampering_seal(payload, sender_private, recipient_public):
            blob = original(payload, sender_private, recipient_public)
            return blob[:-3] + bytes([blob[-3] ^ 0xFF]) + blob[-2:]

        monkeypatch.setattr(runtime_module, "seal_envelope",
                            tampering_seal)
        with pytest.raises((DispatchError, CryptoError)):
            service.execute(SQL)
        # Tampering is an integrity violation, not a provider fault:
        # nothing was retried or failed over, no execution ever ran.
        assert sum(injector.calls(s.name)
                   for s in service.subjects) == 0

    def test_spoofed_signature_raises_and_is_not_retried(self, monkeypatch):
        from repro.crypto.rsa import generate_keypair

        _, impostor_private = generate_keypair(512)
        injector = FaultInjector(seed=9)
        service = make_service(injector)
        original = runtime_module.seal_envelope

        def spoofing_seal(payload, sender_private, recipient_public):
            return original(payload, impostor_private, recipient_public)

        monkeypatch.setattr(runtime_module, "seal_envelope",
                            spoofing_seal)
        with pytest.raises(DispatchError, match="signature"):
            service.execute(SQL)
        assert sum(injector.calls(s.name)
                   for s in service.subjects) == 0


class TestBuildRuntimeValidation:
    def test_unknown_latency_subject_rejected(self):
        # Satellite bugfix: a typo in the latency map used to be
        # silently ignored; it must raise.
        example = build_running_example()
        with pytest.raises(ValueError, match="unknown subjects.*'Q'"):
            build_runtime(example.policy, list(example.subjects),
                          make_tables(), "U",
                          latency_seconds={"Q": 0.1})

    def test_unknown_latency_subject_rejected_via_service(self):
        with pytest.raises(ValueError, match="unknown subjects"):
            make_service(latency_seconds={"Y": 0.1, "Nope": 0.2})

    def test_known_latency_subjects_accepted(self):
        service = make_service(latency_seconds={"Y": 0.0, "H": 0.0})
        assert len(service.execute(SQL).result) > 0
