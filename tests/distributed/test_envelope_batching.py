"""The dispatch contract: one envelope per (query, subject), opened once
per run and verified before anything in it is used; identical bytes
signed once per key; failover reseals one fragment alone; and a run
that leaves nothing of its own behind in the runtime."""

import dataclasses
import threading

import pytest

from repro.core.assignment import assign
from repro.core.budget import CancellationToken
from repro.core.dispatch import dispatch
from repro.core.keys import establish_keys
from repro.core.visibility import verify_assignment
from repro.cost.pricing import PriceList
from repro.crypto import rsa as rsa_module
from repro.crypto.keymanager import DistributedKeys, KeyStore
from repro.crypto.rsa import generate_keypair
from repro.distributed import (
    FaultInjector,
    build_runtime,
    generate_subject_keys,
)
from repro.distributed import runtime as runtime_module
from repro.distributed.messages import (
    SubQueryPayload,
    decode_payload,
    encode_payload,
    open_envelope,
    seal_envelope,
)
from repro.engine import Executor
from repro.exceptions import (
    CryptoError,
    DispatchError,
    QueryCancelledError,
)
from repro.tpch import TPCH_UDFS, all_scenarios, build_tpch_schema, \
    generate, query_plan
from repro.tpch.schema import table_owners

from test_concurrent_runtime import pipeline_7a

SCALE = 0.002


@pytest.fixture(scope="module")
def tpch():
    schema = build_tpch_schema(SCALE)
    data = generate(scale=SCALE, seed=7)
    authority_tables = {"A1": {}, "A2": {}}
    for name, owner in table_owners().items():
        authority_tables[owner][name] = data.table(name)
    rsa_keys = generate_subject_keys(
        list(all_scenarios(schema)["UAPmix"].subjects))
    return schema, data, authority_tables, rsa_keys


class Query:
    """One TPC-H template planned and dispatched under one scenario."""

    def __init__(self, tpch, number, scenario="UAPenc"):
        self.schema, self.data, self.tables, self.rsa_keys = tpch
        self.number = number
        self.scenario = all_scenarios(self.schema)[scenario]
        setting = self.scenario
        outcome = assign(
            query_plan(number, self.schema), setting.policy,
            setting.subject_names, PriceList.from_subjects(setting.subjects),
            user=setting.user, owners=setting.owners)
        self.extended = outcome.extended
        self.keys = establish_keys(self.extended, setting.policy)
        self.plan = dispatch(self.extended, self.keys,
                             owners=setting.owners, user=setting.user)
        self.distributed = DistributedKeys.from_assignment(self.keys)
        self.by_subject = {}
        for fragment in self.plan.fragments.values():
            self.by_subject.setdefault(fragment.subject, []).append(fragment)

    def runtime(self, **kwargs):
        return build_runtime(
            self.scenario.policy, list(self.scenario.subjects), self.tables,
            user=self.scenario.user, udfs=TPCH_UDFS,
            rsa_keys=self.rsa_keys, **kwargs)

    def run(self, runtime, **kwargs):
        return runtime.run(self.plan, self.extended, self.keys,
                           self.distributed, **kwargs)

    def plaintext(self):
        return Executor(self.data.catalog(), udfs=TPCH_UDFS).execute(
            query_plan(self.number, self.schema))


def assert_same_answer(table, reference):
    """Same rows up to column order and float rounding."""
    assert set(table.columns) == set(reference.columns)
    positions = table.positions(reference.columns)
    rows = sorted((tuple(row[p] for p in positions) for row in table.rows),
                  key=repr)
    expected = sorted(reference.rows, key=repr)
    assert len(rows) == len(expected)
    for row, other in zip(rows, expected):
        assert row == pytest.approx(other)


def count_envelopes(monkeypatch):
    """Rebind the runtime's seal/open; returns the (name, payload) log."""
    log = []

    def counted(name):
        original = getattr(runtime_module, name)

        def wrapper(first, *rest):
            result = original(first, *rest)
            log.append((name, first if name == "seal_envelope" else result))
            return result
        return wrapper

    for name in ("seal_envelope", "open_envelope"):
        monkeypatch.setattr(runtime_module, name, counted(name))
    return log


def record_reached(monkeypatch):
    """(subject, fragment id) of whatever reaches the fragment-cache
    lookup and, behind it, an executor."""
    reached = {"lookup": [], "execute": []}
    for stage, method in (("lookup", "_evaluate_fragment"),
                          ("execute", "_execute_with_retries")):
        original = getattr(runtime_module.DistributedRuntime, method)

        def recording(self, context, fragment, *rest,
                      _original=original, _stage=stage):
            reached[_stage].append(
                (fragment.subject, fragment.fragment_id))
            return _original(self, context, fragment, *rest)

        monkeypatch.setattr(runtime_module.DistributedRuntime, method,
                            recording)
    return reached


class TestOneEnvelopePerSubject:
    @pytest.mark.parametrize("number", [3, 5, 18])
    def test_batched_run_matches_plaintext(
            self, tpch, number, monkeypatch):
        query = Query(tpch, number)
        assert max(map(len, query.by_subject.values())) >= 2
        transfers = sum(len(f.requests)
                        for f in query.plan.fragments.values())
        log = count_envelopes(monkeypatch)
        result, trace = query.run(query.runtime())
        assert trace.messages == len(query.by_subject) + transfers
        assert sorted(trace.fragments_run) == sorted(
            (f.fragment_id, f.subject)
            for f in query.plan.fragments.values())
        names = [name for name, _ in log]
        assert names.count("seal_envelope") \
            == names.count("open_envelope") == len(query.by_subject)
        # Every sub-query travels exactly once, to its own subject,
        # next to that subject's key set and nothing else.
        for name, payload in log:
            fragments = query.by_subject[
                query.plan.fragment(payload.fragment_id).subject]
            assert [payload.fragment_id] + [f for f, _ in payload.more] \
                == [f.fragment_id for f in fragments]
            assert payload.keystore.names() == query.distributed \
                .store_for(fragments[0].subject).names()
        assert_same_answer(result, query.plaintext())

    def test_payload_roundtrip_keeps_every_sub_query(self):
        payload = SubQueryPayload("reqA2", "select 1", KeyStore(),
                                  (("reqA22", "select 2"),))
        decoded = decode_payload(encode_payload(payload))
        assert decoded == dataclasses.replace(
            payload, keystore=decoded.keystore)
        assert decoded.carries("reqA2") and decoded.carries("reqA22")
        assert not decoded.carries("reqA23")
        # A single sub-query keeps the wire form it always had.
        single = SubQueryPayload("reqX", "select 1", KeyStore())
        assert b"more" not in encode_payload(single)

    def test_fragment_outside_the_envelope_is_refused(self, tpch,
                                                      monkeypatch):
        query = Query(tpch, 3)
        original = runtime_module.seal_envelope

        def dropping_seal(payload, sender_private, recipient_public):
            return original(dataclasses.replace(payload, more=()),
                            sender_private, recipient_public)

        monkeypatch.setattr(runtime_module, "seal_envelope", dropping_seal)
        reached = record_reached(monkeypatch)
        with pytest.raises(DispatchError, match="no sub-query"):
            query.run(query.runtime())
        assert [f.fragment_id for f in query.by_subject["A2"]] \
            == ["reqA2", "reqA22"]
        assert ("A2", "reqA22") not in reached["lookup"]


class TestBatchedEnvelopeIntegrity:
    """Verify-before-act covers every sub-query of a batched envelope."""

    @pytest.mark.parametrize("offset", [-1, 10])
    def test_flipped_byte_stops_every_fragment_of_the_subject(
            self, tpch, offset, monkeypatch):
        query = Query(tpch, 3)
        original = runtime_module.seal_envelope
        victims = []

        def tampering_seal(payload, sender_private, recipient_public):
            blob = original(payload, sender_private, recipient_public)
            if payload.more:
                victims.append(payload.fragment_id)
                tampered = bytearray(blob)
                tampered[offset] ^= 0x55
                blob = bytes(tampered)
            return blob

        monkeypatch.setattr(runtime_module, "seal_envelope", tampering_seal)
        reached = record_reached(monkeypatch)
        with pytest.raises((DispatchError, CryptoError)):
            query.run(query.runtime())
        assert victims == ["reqA2"]
        for stage in reached.values():
            assert "A2" not in {subject for subject, _ in stage}

    def test_spoofed_batch_stops_every_fragment_of_the_subject(
            self, tpch, monkeypatch):
        _, impostor_private = generate_keypair(512)
        query = Query(tpch, 3)
        original = runtime_module.seal_envelope

        def spoofing_seal(payload, sender_private, recipient_public):
            if payload.more:
                sender_private = impostor_private
            return original(payload, sender_private, recipient_public)

        monkeypatch.setattr(runtime_module, "seal_envelope", spoofing_seal)
        reached = record_reached(monkeypatch)
        with pytest.raises(DispatchError, match="signature"):
            query.run(query.runtime())
        for stage in reached.values():
            assert "A2" not in {subject for subject, _ in stage}


class TestFailoverResealsOneFragment:
    def test_provider_with_two_fragments_dies_mid_run(
            self, tpch, monkeypatch):
        query = Query(tpch, 5, "UAPmix")
        lost = [f.fragment_id for f in query.by_subject["P1"]]
        assert len(lost) == 2
        clean, _ = query.run(query.runtime())

        injector = FaultInjector(seed=5)
        injector.kill("P1")
        runtime = query.runtime(fault_injector=injector,
                                sleeper=lambda seconds: None)
        log = count_envelopes(monkeypatch)
        verified = []
        original = runtime_module.verify_assignment

        def recording_verify(plan, policy, assignment):
            original(plan, policy, assignment)
            verified.append(dict(assignment))

        monkeypatch.setattr(runtime_module, "verify_assignment",
                            recording_verify)
        result, trace = query.run(runtime)

        assert result.columns == clean.columns
        assert sorted(result.rows, key=repr) == sorted(clean.rows, key=repr)
        assert sorted(e.fragment_id for e in trace.failovers) == lost
        sealed = [p for name, p in log if name == "seal_envelope"]
        resealed = sealed[len(query.by_subject):]
        assert sorted(p.fragment_id for p in resealed) == lost
        master = query.distributed.master.names()
        for payload, event in zip(resealed, trace.failovers):
            fragment = query.plan.fragment(payload.fragment_id)
            assert payload.more == ()
            assert payload.query_text == fragment.text
            assert payload.keystore.names() \
                == master & set(fragment.key_names)
            assert event.failed_subject == "P1"
            assert event.repaired_assignment in verified
            verify_assignment(query.extended.plan, query.scenario.policy,
                              event.repaired_assignment)
        # One envelope per subject plus one per takeover, each opened
        # once: P1's batch by P1 (which then fails to execute), every
        # reseal by its replacement — never a batch by another subject.
        opened = [p for name, p in log if name == "open_envelope"]
        assert sorted(p.fragment_id for p in opened) \
            == sorted(p.fragment_id for p in sealed)
        assert len(sealed) == len(query.by_subject) + len(lost)

    def test_reseal_carries_only_the_fragments_own_keys(
            self, example, example_tables, monkeypatch):
        runtime, run = pipeline_7a(example, example_tables)
        clean, _ = run()
        injector = FaultInjector(seed=5)
        injector.kill("Y")
        runtime.fault_injector = injector
        runtime.invalidate_caches()
        log = count_envelopes(monkeypatch)
        result, trace = run()
        assert result.rows == clean.rows
        (event,) = trace.failovers
        resealed = [p for name, p in log if name == "seal_envelope"][-1]
        assert (resealed.fragment_id, resealed.more) == ("reqY", ())
        assert resealed.keystore.names() == {"kP"} \
            == set(run.dispatch_plan.fragment("reqY").key_names)
        assert event.replacement != "Y"


@pytest.fixture()
def counted_pow(monkeypatch):
    """Bit lengths of every modexp ``repro.crypto.rsa`` runs."""
    modexps = []

    def counting_pow(base, exponent, modulus):
        modexps.append(exponent.bit_length())
        return pow(base, exponent, modulus)

    monkeypatch.setattr(rsa_module, "pow", counting_pow, raising=False)
    return modexps


class TestSignMemo:
    PAYLOAD = SubQueryPayload("reqX", "select 1", KeyStore())

    @pytest.fixture(scope="class")
    def recipient(self):
        return generate_keypair(512)

    def private_modexps(self, modexps):
        count = sum(1 for bits in modexps if bits > 17)
        del modexps[:]
        return count

    def test_same_bytes_same_key_signed_once(self, recipient, counted_pow):
        public, private = recipient
        sender_public, sender_private = generate_keypair(512)
        first = seal_envelope(self.PAYLOAD, sender_private, public)
        assert self.private_modexps(counted_pow) == 2
        second = seal_envelope(self.PAYLOAD, sender_private, public)
        assert self.private_modexps(counted_pow) == 0
        # Both still verify, and unwrap at full price, at the recipient.
        for blob in (first, second):
            opened = open_envelope(blob, private, sender_public)
            assert opened.carries("reqX")
        assert self.private_modexps(counted_pow) == 2 * 2
        body = encode_payload(self.PAYLOAD)
        assert sender_private.sign(body) == sender_private.sign(body)

    def test_other_key_pays_and_signs_differently(self, recipient,
                                                  counted_pow):
        public, private = recipient
        user_public, user_private = generate_keypair(512)
        impostor_public, impostor_private = generate_keypair(512)
        body = encode_payload(self.PAYLOAD)
        user_signature = user_private.sign(body)
        assert self.private_modexps(counted_pow) == 2
        impostor_signature = impostor_private.sign(body)
        assert self.private_modexps(counted_pow) == 2
        assert impostor_signature != user_signature
        assert not user_public.verify(body, impostor_signature)
        # The memo never crosses keys: an envelope the impostor seals
        # after the user sealed the same bytes still fails verification.
        seal_envelope(self.PAYLOAD, user_private, public)
        spoofed = seal_envelope(self.PAYLOAD, impostor_private, public)
        with pytest.raises(DispatchError, match="signature"):
            open_envelope(spoofed, private, user_public)

    def test_faulty_first_signature_is_not_remembered(self, counted_pow):
        _, private = generate_keypair(512)
        faulty = dataclasses.replace(private, dp=private.dp ^ 2)
        for _ in range(2):
            with pytest.raises(CryptoError, match="self-check"):
                faulty.sign(b"message")
            assert self.private_modexps(counted_pow) == 2
        assert not faulty._signed

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(rsa_module, "_SIGN_MEMO_LIMIT", 4)
        public, private = generate_keypair(512)
        signatures = {}
        for index in range(12):
            message = b"m%d" % index
            signatures[message] = private.sign(message)
            assert len(private._signed) <= 4
        assert len(private._signed) == 4
        # Evicted or not, a signature is the same bytes and verifies.
        for message, signature in signatures.items():
            assert private.sign(message) == signature
            assert public.verify(message, signature)

    def test_concurrent_signers_stay_inside_the_bound(self, monkeypatch):
        monkeypatch.setattr(rsa_module, "_SIGN_MEMO_LIMIT", 3)
        public, private = generate_keypair(512)
        failures = []

        def signer(offset):
            for index in range(40):
                message = b"m%d" % ((offset + index) % 7)
                if not public.verify(message, private.sign(message)) \
                        or len(private._signed) > 3:
                    failures.append(message)

        threads = [threading.Thread(target=signer, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures


class TestRunStateAndPoolLifetime:
    def runtime_state(self, runtime):
        return {name: len(value) for name, value in vars(runtime).items()
                if isinstance(value, (dict, list, set))}

    def test_cancel_between_seal_and_first_open(
            self, example, example_tables, monkeypatch):
        runtime, run = pipeline_7a(example, example_tables)
        before = self.runtime_state(runtime)
        token = CancellationToken()
        log = count_envelopes(monkeypatch)
        counting_seal = runtime_module.seal_envelope
        subjects = {f.subject for f in run.dispatch_plan.fragments.values()}

        def cancelling_seal(*args):
            blob = counting_seal(*args)
            if len(log) == len(subjects):  # the last envelope is sealed
                token.cancel()
            return blob

        monkeypatch.setattr(runtime_module, "seal_envelope",
                            cancelling_seal)
        with pytest.raises(QueryCancelledError) as aborted:
            run(token=token)
        assert [name for name, _ in log] == ["seal_envelope"] * 4
        assert aborted.value.trace.fragments_run == []
        assert self.runtime_state(runtime) == before
        assert runtime.cache_info()["fragment_entries"] == 0

        del log[:]
        result, trace = run()
        assert result.sorted_rows() == [("tpa", 120.0)]
        names = [name for name, _ in log]
        assert names.count("seal_envelope") \
            == names.count("open_envelope") == 4
        assert len(trace.fragments_run) == 4
