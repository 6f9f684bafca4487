"""Chaos equivalence: seeded fault schedules never change results.

The failover contract's headline property — for any deterministic fault
schedule the runtime can recover from (transient faults, latency
spikes, provider death), the recovered result is *bit-identical* to the
fault-free run, every re-dispatch target passes
:func:`verify_assignment`, and enforcement failures (tampering,
spoofing) still raise instead of being retried.  Checked on the paper's
running example and on TPC-H Q3/Q5/Q18 under the UAPenc scenario.
"""

import pytest

from repro.core.visibility import verify_assignment
from repro.distributed import FaultInjector
from repro.distributed import runtime as runtime_module
from repro.exceptions import CryptoError, DispatchError
from repro.paper_example import build_running_example
from repro.engine import Table
from repro.service import QueryService
from repro.tpch import TPCH_UDFS, all_scenarios, build_tpch_schema, \
    generate, query
from repro.tpch.schema import table_owners

RUNNING_SQL = ("select T, avg(P) from Hosp join Ins on S=C "
               "where D='stroke' group by T having avg(P)>100")

#: Fault schedules replayed against every workload.  Each entry maps
#: subject → FaultSpec kwargs; ``kill`` entries die before the run.
SCHEDULES = {
    "transient-bursts": {
        "set": {"X": dict(transient_error_rate=0.4),
                "Y": dict(crash_on_call=1),
                "Z": dict(transient_error_rate=0.4)},
        "kill": (),
    },
    "latency-spikes": {
        "set": {"X": dict(latency_spike_seconds=0.2,
                          latency_spike_rate=0.5),
                "Y": dict(latency_spike_seconds=0.4,
                          latency_spike_rate=0.5,
                          transient_error_rate=0.2)},
        "kill": (),
    },
    "provider-death": {
        "set": {"X": dict(transient_error_rate=0.2)},
        "kill": ("Y",),
    },
    "rolling-carnage": {
        "set": {"X": dict(die_after_calls=1),
                "Z": dict(crash_on_call=1, crash_is_fatal=True)},
        "kill": ("Y",),
    },
}


def make_injector(schedule_name, seed, subject_names):
    schedule = SCHEDULES[schedule_name]
    injector = FaultInjector(seed=seed)
    for subject, kwargs in schedule["set"].items():
        if subject in subject_names:
            injector.set_fault(subject, **kwargs)
    for subject in schedule["kill"]:
        if subject in subject_names:
            injector.kill(subject)
    return injector


def run_and_audit(service, sql):
    """Execute, re-verifying every failover event independently."""
    outcome = service.execute(sql)
    for event in outcome.failovers:
        verify_assignment(outcome.assignment.extended.plan,
                          service.policy, event.repaired_assignment)
    return outcome


def assert_rows_equal(a: Table, b: Table):
    assert a.columns == b.columns
    assert sorted(map(repr, a.rows)) == sorted(map(repr, b.rows))


class TestRunningExampleChaos:
    @staticmethod
    def make_tables(rows=40):
        hosp = Table("Hosp", ("S", "B", "D", "T"), [
            (f"s{i}", 1950 + i % 50, "stroke" if i % 3 else "flu",
             "tpa" if i % 2 else "surgery") for i in range(rows)])
        ins = Table("Ins", ("C", "P"), [(f"s{i}", 40.0 + 7.0 * (i % 30))
                                        for i in range(rows)])
        return {"H": {"Hosp": hosp}, "I": {"Ins": ins}}

    def make_service(self, injector=None):
        example = build_running_example()
        return QueryService(example.schema, example.policy,
                            example.subjects, example.owners,
                            self.make_tables(), user="U",
                            fault_injector=injector,
                            sleeper=lambda seconds: None)

    @pytest.fixture(scope="class")
    def clean(self):
        return self.make_service().execute(RUNNING_SQL)

    @pytest.mark.parametrize("schedule_name", sorted(SCHEDULES))
    @pytest.mark.parametrize("seed", [1, 7])
    def test_chaos_matches_fault_free(self, clean, schedule_name, seed):
        injector = make_injector(schedule_name, seed,
                                 {"X", "Y", "Z", "U"})
        outcome = run_and_audit(self.make_service(injector), RUNNING_SQL)
        assert_rows_equal(outcome.result, clean.result)
        if SCHEDULES[schedule_name]["kill"]:
            assert outcome.failed_over

    def test_chaos_replay_is_deterministic(self):
        describes = []
        for _ in range(2):
            injector = make_injector("transient-bursts", 13,
                                     {"X", "Y", "Z", "U"})
            outcome = run_and_audit(self.make_service(injector),
                                    RUNNING_SQL)
            describes.append((sorted(map(repr, outcome.result.rows)),
                              outcome.retries, outcome.attempts,
                              tuple((e.fragment_id, e.failed_subject,
                                     e.replacement)
                                    for e in outcome.failovers)))
        assert describes[0] == describes[1]

    def test_tampering_still_raises_under_chaos(self, monkeypatch):
        injector = make_injector("transient-bursts", 3,
                                 {"X", "Y", "Z", "U"})
        service = self.make_service(injector)
        original = runtime_module.seal_envelope

        def tampering_seal(payload, sender_private, recipient_public):
            blob = original(payload, sender_private, recipient_public)
            return blob[:-1] + bytes([blob[-1] ^ 0x55])

        monkeypatch.setattr(runtime_module, "seal_envelope",
                            tampering_seal)
        with pytest.raises((DispatchError, CryptoError)):
            service.execute(RUNNING_SQL)
        # Integrity violations must not be retried as provider faults.
        assert sum(injector.calls(s.name)
                   for s in service.subjects) == 0

    def test_spoofing_still_raises_under_chaos(self, monkeypatch):
        from repro.crypto.rsa import generate_keypair

        _, impostor_private = generate_keypair(512)
        injector = make_injector("provider-death", 3,
                                 {"X", "Y", "Z", "U"})
        service = self.make_service(injector)
        original = runtime_module.seal_envelope

        def spoofing_seal(payload, sender_private, recipient_public):
            return original(payload, impostor_private, recipient_public)

        monkeypatch.setattr(runtime_module, "seal_envelope",
                            spoofing_seal)
        with pytest.raises(DispatchError, match="signature"):
            service.execute(RUNNING_SQL)
        assert sum(injector.calls(s.name)
                   for s in service.subjects) == 0


class TestTpchChaos:
    SCALE = 0.002

    @pytest.fixture(scope="class")
    def tpch_setup(self):
        schema = build_tpch_schema(self.SCALE)
        data = generate(scale=self.SCALE, seed=7)
        scenario_obj = all_scenarios(schema)["UAPenc"]
        authority_tables = {"A1": {}, "A2": {}}
        for name, owner in table_owners().items():
            authority_tables[owner][name] = data.table(name)
        return schema, scenario_obj, authority_tables

    def make_service(self, tpch_setup, injector=None):
        schema, scenario_obj, authority_tables = tpch_setup
        return QueryService(schema, scenario_obj.policy,
                            scenario_obj.subjects, scenario_obj.owners,
                            authority_tables, user=scenario_obj.user,
                            udfs=TPCH_UDFS, fault_injector=injector,
                            sleeper=lambda seconds: None)

    @pytest.fixture(scope="class")
    def clean_results(self, tpch_setup):
        service = self.make_service(tpch_setup)
        return {number: service.execute(query(number).sql).result
                for number in (3, 5, 18)}

    @pytest.mark.parametrize("number", [3, 5, 18])
    def test_transient_chaos_matches_fault_free(self, tpch_setup,
                                                clean_results, number):
        subject_names = {s.name for s in tpch_setup[1].subjects}
        injector = make_injector("transient-bursts", number,
                                 subject_names)
        outcome = run_and_audit(self.make_service(tpch_setup, injector),
                                query(number).sql)
        assert_rows_equal(outcome.result, clean_results[number])
        assert outcome.retries >= 0

    @pytest.mark.parametrize("number", [3, 5, 18])
    def test_provider_death_matches_fault_free(self, tpch_setup,
                                               clean_results, number):
        schema, scenario_obj, authority_tables = tpch_setup
        # Kill a compute subject the clean plan actually uses, so the
        # run must fail over (authorities and the user are immortal).
        clean_service = self.make_service(tpch_setup)
        clean = clean_service.execute(query(number).sql)
        owners = set(scenario_obj.owners.values())
        assigned = sorted(
            s for s in set(clean.assignment.extended.assignment.values())
            if s not in owners and s != scenario_obj.user)
        if not assigned:
            pytest.skip("plan uses no killable compute subject")
        injector = FaultInjector(seed=number)
        injector.kill(assigned[0])
        outcome = run_and_audit(self.make_service(tpch_setup, injector),
                                query(number).sql)
        assert outcome.failed_over
        assert_rows_equal(outcome.result, clean_results[number])
        assert assigned[0] not in {e.replacement
                                   for e in outcome.failovers}
