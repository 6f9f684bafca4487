"""Failover integration tests: retries, takeover, re-plan.

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
from oracles.delivery_monitor import violations
from repro.core.authorization import Authorization
from repro.core.budget import QueryBudget
from repro.core.visibility import verify_assignment
from repro.distributed import FaultInjector
from repro.distributed import runtime as runtime_module
from repro.distributed.trace import EnvelopeRow, TableRow
from repro.engine import Executor, Table
from repro.exceptions import (
    CryptoError,
    DeadlineExceededError,
    DispatchError,
    UnrecoverableAssignmentError,
)
from repro.gateway import Gateway, TenantConfig
from repro.paper_example import build_running_example
from repro.service import QueryService
from repro.sql import plan_query

SQL = ("select T, avg(P) from Hosp join Ins on S=C "
       "where D='stroke' group by T having avg(P)>100")


def make_tables(rows=30):
    hosp = Table("Hosp", ("S", "B", "D", "T"), [
        (f"s{i}", 1950 + i % 50, "stroke" if i % 3 else "flu",
         "tpa" if i % 2 else "surgery") for i in range(rows)])
    ins = Table("Ins", ("C", "P"), [(f"s{i}", 40.0 + 7.0 * (i % 30))
                                    for i in range(rows)])
    return {"H": {"Hosp": hosp}, "I": {"Ins": ins}}


def make_service(injector=None, twins=False, **kwargs):
    """The running example's service.  With ``twins``, X and Z hold Y's
    authorizations, so Y's operations have three authorized providers
    (the planner picks X, the first by name)."""
    example = build_running_example()
    if twins:
        hosp, ins = (example.schema.relation(name)
                     for name in ("Hosp", "Ins"))
        for name in ("X", "Z"):
            for relation in (hosp, ins):
                example.policy.revoke(relation, name)
            example.policy.grant_all([Authorization(hosp, "BDT", "S", name),
                                      Authorization(ins, "P", "C", name)])
    kwargs.setdefault("sleeper", lambda seconds: None)
    return QueryService(example.schema, example.policy, example.subjects,
                        example.owners, make_tables(), user="U",
                        fault_injector=injector, **kwargs)


@pytest.fixture()
def no_takeover(monkeypatch):
    """The runtime finds no candidate to take a lost fragment over, so a
    lost provider surfaces to the service's re-plan."""
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


def assert_plaintext_answer(outcome, service):
    """``outcome`` is the single-site executor's answer on plaintext, and
    the delivery monitor finds nothing wrong with any table handed to a
    subject in any of its runs (a re-plan's failed primary included)."""
    assert not violations(outcome.trace.deliveries, service.policy)
    catalog = {name: table for tables in make_tables().values()
               for name, table in tables.items()}
    assert_rows_equal(outcome.result, Executor(catalog).execute(
        plan_query(SQL, service.schema)))


def envelopes_to(trace):
    """The recipient of every envelope ``trace`` records, in order."""
    return [row.recipient for row in trace.deliveries
            if isinstance(row, EnvelopeRow)]


def node_rows(trace):
    """(fragment id, subject, node label) of every row of ``trace``."""
    return [(fragment, subject, node.label())
            for fragment, subject, node, *_ in trace.nodes]


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
    def test_runtime_failover_disabled_replans(self, clean_outcome,
                                               no_takeover):
        # With no in-place takeover candidate the runtime escalates
        # ProviderUnavailableError and the service re-plans over the
        # healthy subjects.
        victim = compute_victim(clean_outcome)
        injector = FaultInjector(seed=5)
        injector.kill(victim)
        service = make_service(injector)
        outcome = service.execute(SQL)
        assert outcome.failed_over and outcome.replanned
        assert outcome.failovers == ()  # no runtime-level takeover ran
        assert "failover[replanned" in outcome.describe()
        assert_plaintext_answer(outcome, service)
        assert victim not in set(
            outcome.assignment.extended.assignment.values())
        verify_assignment(outcome.assignment.extended.plan, service.policy,
                          outcome.assignment.extended.assignment)

    def test_the_outcome_trace_covers_every_run(self, clean_outcome,
                                                monkeypatch, no_takeover):
        """The primary run that lost its provider and the re-run that
        recovered are one query: every envelope sealed for it is in the
        outcome's trace, not only the last run's — first the primary's,
        which dispatches as the fault-free run does, then the re-plan's,
        none of them to the lost provider."""
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
        assert outcome.replanned
        assert_plaintext_answer(outcome, service)
        assert outcome.trace.envelope_bytes == sum(sealed)
        assert outcome.trace.breaker_trips >= 1
        primary = envelopes_to(clean_outcome.trace)
        recipients = envelopes_to(outcome.trace)
        assert victim in primary
        assert recipients[:len(primary)] == primary
        replan = recipients[len(primary):]
        assert victim not in replan
        assert sorted(replan) == sorted(
            set(outcome.assignment.extended.assignment.values()))

    def test_fragment_latency_is_read_off_the_trace(self, clean_outcome,
                                                    no_takeover):
        """The gateway's per-subject fragment histogram counts exactly
        the executions the query's trace recorded, the failed run's
        included."""
        victim = compute_victim(clean_outcome)
        injector = FaultInjector(seed=5)
        injector.kill(victim)
        service = make_service(injector)
        gateway = Gateway(service, [TenantConfig("t")], max_inflight=1)
        try:
            outcome = gateway.execute("t", SQL)
            families = parse_prometheus(gateway.metrics_text())
        finally:
            gateway.close()
        assert outcome.replanned
        assert_plaintext_answer(outcome, service)
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


class TestReplanTier:
    """The service's tier beyond takeover: a re-plan over the healthy
    subjects, and what happens while it runs.  With ``twins`` the
    primary runs the query's top at X, and Y and Z may run it too."""

    def test_a_subject_lost_before_the_query_is_left_out_of_the_replan(
            self, no_takeover):
        primary = make_service(twins=True).execute(SQL).assignment
        assert "X" in primary.extended.assignment.values()
        injector = FaultInjector(seed=5)
        for name in ("X", "U"):
            injector.kill(name)
        service = make_service(injector, twins=True)
        service.runtime.health.mark_dead("U")  # lost before this query
        outcome = service.execute(SQL)
        assert outcome.replanned
        used = set(outcome.assignment.extended.assignment.values())
        assert not used & {"X", "U"}
        verify_assignment(outcome.assignment.extended.plan, service.policy,
                          outcome.assignment.extended.assignment)
        assert_plaintext_answer(outcome, service)
        # U was asked for nothing.
        assert "U" not in {subject for _, subject in
                           outcome.trace.fragments_run}
        assert {subject for _, subject, _ in node_rows(outcome.trace)} \
            == {"H", "I", "Y"}

    def test_a_second_provider_dies_while_the_replan_reruns(
            self, no_takeover):
        """X dies under the primary, Y under the re-plan that replaced
        it: the unavailable set widens and a second re-plan over Z
        recovers.  The trace folds all three runs, the rows of the two
        that failed included."""
        injector = FaultInjector(seed=5)
        for name in ("X", "Y"):
            injector.kill(name)
        service = make_service(injector, twins=True)
        outcome = service.execute(SQL)
        assert outcome.replanned
        assert not set(outcome.assignment.extended.assignment.values()) \
            & {"X", "Y"}
        verify_assignment(outcome.assignment.extended.plan, service.policy,
                          outcome.assignment.extended.assignment)
        assert_plaintext_answer(outcome, service)
        asked = [subject for _, subject in outcome.trace.fragments_run]
        assert asked.index("X") < asked.index("Y") < asked.index("Z")
        rows = node_rows(outcome.trace)
        # H and I ran under each of the three runs' fresh keys.
        assert rows.count(("reqI", "I", "enc[C]")) == 3
        assert {subject for _, subject, _ in rows} == {"H", "I", "Z"}
        assert outcome.trace.breaker_trips == 2

    def test_a_deadline_during_repair_carries_every_run_so_far(
            self, no_takeover):
        """A second of provider latency per fragment on a fake clock, a
        3.5 s deadline: the primary runs H and I and loses X at 2 s; the
        re-plan's run seals H's S by 3 s, and the deadline expires
        waiting on I.  The error's trace holds both runs' node rows."""
        clock = FakeClock()
        injector = steady_latency(
            1.0, build_running_example().subject_names,
            FaultInjector(seed=5))
        injector.kill("X")
        service = make_service(injector, twins=True, clock=clock,
                               sleeper=clock.sleep)
        with pytest.raises(DeadlineExceededError) as raised:
            service.execute(SQL, budget=QueryBudget(deadline_seconds=3.5))
        assert clock.now == 3.5
        assert raised.value.where == "runtime:fragment reqI response"
        primary = [
            ("reqH", "H", "π[S,D,T] Hosp(S,D,T)"),
            ("reqH", "H", "σ[D='stroke']"),
            ("reqH", "H", "π[S,T]"),
            ("reqH", "H", "enc[S]"),
            ("reqI", "I", "Ins(C,P)"),
            ("reqI", "I", "enc[C]"),
        ]
        assert node_rows(raised.value.trace) == primary + primary[:4]

    def test_the_first_takeover_candidate_fails_too(self):
        """X is lost; Y, the first candidate by name, is dead as well:
        the fragment moves on to Z in the same takeover."""
        injector = FaultInjector(seed=5)
        for name in ("X", "Y"):
            injector.kill(name)
        service = make_service(injector, twins=True)
        outcome = service.execute(SQL)
        assert not outcome.replanned
        (event,) = outcome.failovers
        assert (event.failed_subject, event.replacement) == ("X", "Z")
        assert event.attempts == 2  # X's and Y's
        verify_assignment(outcome.assignment.extended.plan, service.policy,
                          event.repaired_assignment)
        assert_plaintext_answer(outcome, service)
        assert [pair for pair in outcome.trace.fragments_run
                if pair[0] == "reqX"] == [("reqX", "X"), ("reqX", "Y"),
                                          ("reqX", "Z")]
        assert {subject for fragment, subject, _
                in node_rows(outcome.trace) if fragment == "reqX"} == {"Z"}
        # Each candidate is sealed reqX alone and re-fed both its inputs,
        # and the result reaches U from the subject that computed it.
        assert envelopes_to(outcome.trace) == ["H", "I", "X", "Y", "Z"]
        assert [(row.fragment, row.sender, row.recipient, row.into,
                 row.node.label(), row.columns)
                for row in outcome.trace.deliveries
                if isinstance(row, TableRow)] == [
            (fragment, sender, recipient, "reqX", node, columns)
            for recipient in ("X", "Y", "Z")
            for fragment, sender, node, columns in (
                ("reqH", "H", "enc[S]", ("S", "T")),
                ("reqI", "I", "enc[C]", ("C", "P")))] + [
            ("reqX", "Z", "U", None, "σ[P>100]", ("T", "P"))]


class TestOneClock:
    @pytest.mark.parametrize("takeover", (True, False),
                             ids=("takeover", "replan"))
    def test_wall_and_failover_seconds_read_the_injected_clock(
            self, clean_outcome, takeover, request):
        """Half a (fake) second of provider latency per fragment, slept
        on a clock that nothing else moves: the query took exactly the
        time that was slept, and recovery exactly the time from the loss
        of the provider to delivery — by takeover or by re-plan.  Read on
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
        service = make_service(injector, clock=clock, sleeper=clock.sleep)
        outcome = service.execute(SQL)
        assert outcome.failed_over and bool(outcome.failovers) == takeover
        assert outcome.replanned != takeover
        assert_plaintext_answer(outcome, service)
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

