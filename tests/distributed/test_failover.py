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

from helpers import FakeClock, parse_prometheus, steady_latency
from repro.core.visibility import verify_assignment
from repro.distributed import FaultInjector
from repro.distributed import runtime as runtime_module
from repro.engine import Table
from repro.exceptions import (
    CryptoError,
    DispatchError,
    UnrecoverableAssignmentError,
)
from repro.gateway import Gateway, TenantConfig
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


@pytest.fixture()
def no_takeover(monkeypatch):
    """The runtime finds no candidate to take a lost fragment over, so a
    lost provider surfaces to the service's standby and re-plan tiers."""
    monkeypatch.setattr(runtime_module.DistributedRuntime, "_next_candidate",
                        lambda *args: None)


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
        service = make_service(
            steady_latency(5.0, build_running_example().subject_names),
            sleeper=recorded.append)
        started = time.monotonic()
        outcome = service.execute(SQL)
        assert time.monotonic() - started < 2.0
        assert 5.0 in recorded
        assert len(outcome.result) > 0


class TestSimulatedLatency:
    """A fault injector is the one source of simulated provider delay."""

    def test_no_injector_sleeps_nothing(self, clean_outcome):
        recorded = []
        outcome = make_service(sleeper=recorded.append).execute(SQL)
        assert recorded == []
        assert_rows_equal(outcome.result, clean_outcome.result)

    def test_steady_latency_delays_only_its_subjects(self, clean_outcome):
        victim = compute_victim(clean_outcome)
        injector = steady_latency(0.25, [victim])
        recorded = []
        outcome = make_service(injector, sleeper=recorded.append).execute(SQL)
        assert injector.calls(victim) >= 1
        assert recorded == [0.25] * injector.calls(victim)
        assert_rows_equal(outcome.result, clean_outcome.result)


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
        assert outcome.trace.breaker_trips >= 1
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
            self, clean_outcome, no_takeover):
        # With no in-place takeover candidate the runtime escalates
        # ProviderUnavailableError and the service tier must recover
        # via a warm standby plan or a full re-plan.
        victim = compute_victim(clean_outcome)
        injector = FaultInjector(seed=5)
        injector.kill(victim)
        outcome = make_service(injector).execute(SQL)
        assert outcome.failed_over
        assert outcome.standby_used or outcome.replanned
        assert outcome.failovers == ()  # no runtime-level takeover ran
        assert_rows_equal(outcome.result, clean_outcome.result)
        assert victim not in set(
            outcome.assignment.extended.assignment.values())

    def test_the_outcome_trace_covers_every_run(self, clean_outcome,
                                                monkeypatch, no_takeover):
        """The primary run that lost its provider and the re-run that
        recovered are one query: every envelope sealed for it is in the
        outcome's trace, not only the last run's."""
        victim = compute_victim(clean_outcome)
        injector = FaultInjector(seed=5)
        injector.kill(victim)
        service = make_service(injector)
        sealed = []
        original = runtime_module.seal_envelope

        def counting_seal(payload, sender_private, recipient_public):
            blob = original(payload, sender_private, recipient_public)
            sealed.append(len(blob))
            return blob

        monkeypatch.setattr(runtime_module, "seal_envelope", counting_seal)
        outcome = service.execute(SQL)
        assert outcome.standby_used or outcome.replanned
        assert outcome.trace.envelope_bytes == sum(sealed)
        assert outcome.trace.breaker_trips >= 1

    def test_fragment_latency_is_read_off_the_trace(self, clean_outcome,
                                                    no_takeover):
        """The gateway's per-subject fragment histogram counts exactly
        the executions the query's trace recorded, the failed run's
        included."""
        victim = compute_victim(clean_outcome)
        injector = FaultInjector(seed=5)
        injector.kill(victim)
        gateway = Gateway(make_service(injector),
                          [TenantConfig("t")], max_inflight=1)
        try:
            outcome = gateway.execute("t", SQL)
            families = parse_prometheus(gateway.metrics_text())
        finally:
            gateway.close()
        assert outcome.replanned or outcome.standby_used
        counts = {labels["subject"]: value for name, labels, value
                  in families["repro_fragment_latency_seconds"]["samples"]
                  if name.endswith("_count")}
        executed = [subject for subject, _ in outcome.trace.executions]
        assert counts == {subject: executed.count(subject)
                          for subject in set(executed)}
        assert victim not in counts

    def test_dead_data_authority_is_unrecoverable(self):
        injector = FaultInjector(seed=5)
        injector.kill("H")  # owner of Hosp: its data cannot move
        with pytest.raises(UnrecoverableAssignmentError,
                           match="data authority"):
            make_service(injector).execute(SQL)


class TestOneClock:
    @pytest.mark.parametrize("takeover", (True, False),
                             ids=("takeover", "standby-or-replan"))
    def test_wall_and_failover_seconds_read_the_injected_clock(
            self, clean_outcome, takeover, request):
        """Half a (fake) second of provider latency per fragment, slept
        on a clock that nothing else moves: the query took exactly the
        time that was slept, and recovery exactly the time from the loss
        of the provider to delivery — whichever tier recovered.  Read on
        any other clock, both are a few real milliseconds."""
        if not takeover:
            request.getfixturevalue("no_takeover")
        victim = compute_victim(clean_outcome)
        injector = steady_latency(0.5, build_running_example().subject_names,
                                  FaultInjector(seed=5))
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
            injector, clock=clock, sleeper=clock.sleep).execute(SQL)
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

