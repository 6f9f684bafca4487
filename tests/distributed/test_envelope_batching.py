"""The dispatch contract: one envelope per (query, subject), opened once
per run and verified before anything in it is used; identical bytes
signed once per key; a session key unwrapped once per (sender,
recipient) session while every envelope in it is still tag-checked and
verified; failover reseals one fragment alone; and a run that leaves
nothing of its own behind in the runtime."""

import dataclasses
import struct
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
from repro.distributed.trace import EnvelopeRow
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
    query_plan

from helpers import authority_tables
from test_concurrent_runtime import pipeline_7a

SCALE = 0.002


@pytest.fixture(scope="module")
def tpch(tpch_data):
    schema = build_tpch_schema(SCALE)
    data = tpch_data(SCALE, 7)
    rsa_keys = generate_subject_keys(
        list(all_scenarios(schema)["UAPmix"].subjects))
    return schema, data, authority_tables(data), rsa_keys


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


def sealed(trace):
    """The envelope rows of ``trace``, in the order they were sealed."""
    return [row for row in trace.deliveries if isinstance(row, EnvelopeRow)]


def count_opens(monkeypatch):
    """Rebind the runtime's open; returns every payload opened.  What was
    sealed is read from the trace's envelope rows (:func:`sealed`)."""
    opened = []
    original = runtime_module.open_envelope

    def counted(*args):
        payload = original(*args)
        opened.append(payload)
        return payload

    monkeypatch.setattr(runtime_module, "open_envelope", counted)
    return opened


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
        opened = count_opens(monkeypatch)
        result, trace = query.run(query.runtime())
        assert trace.messages == len(query.by_subject) + transfers
        assert sorted(trace.fragments_run) == sorted(
            (f.fragment_id, f.subject)
            for f in query.plan.fragments.values())
        envelopes = sealed(trace)
        assert len(envelopes) == len(opened) == len(query.by_subject)
        # Every sub-query travels exactly once, to its own subject,
        # next to that subject's key set and nothing else.
        carried = [(row.recipient, list(row.fragments), row.keys)
                   for row in envelopes] + [
            (query.plan.fragment(payload.fragment_id).subject,
             [payload.fragment_id] + [f for f, _ in payload.more],
             payload.keystore.names()) for payload in opened]
        for subject, fragment_ids, keys in carried:
            assert fragment_ids == [
                f.fragment_id for f in query.by_subject[subject]]
            assert keys == query.distributed.store_for(subject).names()
        assert_same_answer(result, query.plaintext())

    def test_payload_roundtrip_keeps_every_sub_query(self):
        payload = SubQueryPayload("reqA2", "select 1", KeyStore(),
                                  (("reqA22", "select 2"),))
        decoded = decode_payload(encode_payload(payload))
        assert decoded == dataclasses.replace(
            payload, keystore=decoded.keystore)
        assert decoded.carries("reqA2") and decoded.carries("reqA22")
        assert not decoded.carries("reqA23")
        # A single sub-query carries no other: its body is the batched
        # one's with the count 1 → 0 and the extra (id, text) pair gone.
        single = SubQueryPayload("reqA2", "select 1", KeyStore())
        assert decode_payload(encode_payload(single)).more == ()
        # ``name ‖ text`` of the pair: a body without its two zero counts.
        pair = encode_payload(SubQueryPayload("reqA22", "select 2",
                                              KeyStore()))[:-4]
        assert encode_payload(single) == encode_payload(payload).replace(
            b"\x00\x01" + pair, b"\x00\x00")

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

    def test_spoof_inside_a_warm_session_stops_every_fragment(
            self, tpch, monkeypatch):
        """The recipient already holds the session key and the body's
        tag is good: only the per-envelope signature stands between a
        warm A2 and a payload the user never signed."""
        _, impostor_private = generate_keypair(512)
        query = Query(tpch, 3)
        runtime = query.runtime()
        opened = count_opens(monkeypatch)
        original = runtime_module.seal_envelope
        blobs = {}

        def recording_seal(payload, sender_private, recipient_public):
            blob = original(payload, sender_private, recipient_public)
            blobs.setdefault(payload.fragment_id, []).append(blob)
            return blob

        monkeypatch.setattr(runtime_module, "seal_envelope", recording_seal)
        _, trace = query.run(runtime)
        assert len(sealed(trace)) == len(opened) == len(query.by_subject)

        def spoofing_seal(payload, sender_private, recipient_public):
            if not payload.more:
                return recording_seal(payload, sender_private,
                                      recipient_public)
            body = encode_payload(payload)
            framed = struct.pack(">I", len(body)) + body \
                + impostor_private.sign(body)
            blob = sender_private.encrypt_for(recipient_public, framed)
            blobs[payload.fragment_id].append(blob)
            return blob

        monkeypatch.setattr(runtime_module, "seal_envelope", spoofing_seal)
        reached = record_reached(monkeypatch)
        with pytest.raises(DispatchError, match="signature"):
            query.run(runtime)
        clean, spoofed = blobs["reqA2"]
        assert clean[:4 + 64] == spoofed[:4 + 64]  # one session
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
        opened = count_opens(monkeypatch)
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
        envelopes = sealed(trace)
        resealed = envelopes[len(query.by_subject):]
        assert sorted(fragment_id for row in resealed
                      for fragment_id in row.fragments) == lost
        master = query.distributed.master.names()
        for row, event in zip(resealed, trace.failovers):
            (fragment_id,) = row.fragments
            fragment = query.plan.fragment(fragment_id)
            assert row.recipient == event.replacement != "P1"
            assert row.keys == master & set(fragment.key_names)
            assert event.failed_subject == "P1"
            assert event.repaired_assignment in verified
            verify_assignment(query.extended.plan, query.scenario.policy,
                              event.repaired_assignment)
        # One envelope per subject plus one per takeover, each opened
        # once: P1's batch by P1 (which then fails to execute), every
        # reseal by its replacement — never a batch by another subject.
        assert sorted(p.fragment_id for p in opened) \
            == sorted(row.fragments[0] for row in envelopes)
        assert len(envelopes) == len(query.by_subject) + len(lost)
        reopened = [payload for payload in opened if not payload.more
                    and payload.fragment_id in lost]
        assert sorted(payload.fragment_id for payload in reopened) == lost
        for payload in reopened:
            fragment = query.plan.fragment(payload.fragment_id)
            assert payload.query_text == fragment.text
            assert payload.keystore.names() \
                == master & set(fragment.key_names)

    def test_reseal_carries_only_the_fragments_own_keys(
            self, example, example_tables, monkeypatch):
        runtime, run = pipeline_7a(example, example_tables)
        clean, _ = run()
        injector = FaultInjector(seed=5)
        injector.kill("Y")
        runtime.fault_injector = injector
        runtime.invalidate_caches()
        result, trace = run()
        assert result.rows == clean.rows
        (event,) = trace.failovers
        resealed = sealed(trace)[-1]
        assert (resealed.recipient, resealed.fragments) \
            == (event.replacement, ("reqY",))
        assert resealed.keys == {"kP"} \
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
        # Both still verify at the recipient, which unwraps the session
        # key they share once.
        for paid, blob in ((2, first), (0, second)):
            opened = open_envelope(blob, private, sender_public)
            assert opened.carries("reqX")
            assert self.private_modexps(counted_pow) == paid
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
        monkeypatch.setattr(rsa_module, "_MEMO_LIMIT", 4)
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
        monkeypatch.setattr(rsa_module, "_MEMO_LIMIT", 3)
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


class TestSessionEnvelopes:
    """Verify-before-act on an envelope that is not the first of its
    session: the recipient serves the session key from its memo, and
    every other check still runs."""

    PAYLOAD = SubQueryPayload("reqX", "select 1", KeyStore())

    @pytest.fixture()
    def parties(self):
        recipient_public, recipient_private = generate_keypair(512)
        user_public, user_private = generate_keypair(512)
        first = seal_envelope(self.PAYLOAD, user_private, recipient_public)
        assert open_envelope(first, recipient_private, user_public) \
            .carries("reqX")
        second = seal_envelope(self.PAYLOAD, user_private, recipient_public)
        assert second[:4 + 64] == first[:4 + 64]
        assert list(recipient_private._unwrapped) == [first[4:4 + 64]]
        return recipient_public, recipient_private, user_public, \
            user_private, second

    @pytest.mark.parametrize("offset", [10, 4 + 64 + 16 + 40, -1],
                             ids=["wrapped-key", "body", "tag"])
    def test_flipped_byte_raises(self, parties, offset):
        _, recipient_private, user_public, _, second = parties
        tampered = bytearray(second)
        tampered[offset] ^= 0x55
        with pytest.raises(CryptoError):
            open_envelope(bytes(tampered), recipient_private, user_public)
        assert open_envelope(second, recipient_private, user_public) \
            .carries("reqX")

    def test_spoofed_signature_raises(self, parties):
        recipient_public, recipient_private, user_public, user_private, \
            second = parties
        _, impostor_private = generate_keypair(512)
        body = encode_payload(self.PAYLOAD)
        framed = struct.pack(">I", len(body)) + body \
            + impostor_private.sign(body)
        spoofed = user_private.encrypt_for(recipient_public, framed)
        assert spoofed[:4 + 64] == second[:4 + 64]
        with pytest.raises(DispatchError, match="signature"):
            open_envelope(spoofed, recipient_private, user_public)


class TestRunStateAndPoolLifetime:
    def runtime_state(self, runtime):
        return {name: len(value) for name, value in vars(runtime).items()
                if isinstance(value, (dict, list, set))}

    def test_cancel_between_seal_and_first_open(
            self, example, example_tables, monkeypatch):
        runtime, run = pipeline_7a(example, example_tables)
        before = self.runtime_state(runtime)
        token = CancellationToken()
        opened = count_opens(monkeypatch)
        original = runtime_module.seal_envelope
        subjects = {f.subject for f in run.dispatch_plan.fragments.values()}
        seals = []

        def cancelling_seal(*args):
            seals.append(original(*args))
            if len(seals) == len(subjects):  # the last envelope is sealed
                token.cancel()
            return seals[-1]

        monkeypatch.setattr(runtime_module, "seal_envelope",
                            cancelling_seal)
        with pytest.raises(QueryCancelledError) as aborted:
            run(token=token)
        assert len(sealed(aborted.value.trace)) == 4 and opened == []
        assert aborted.value.trace.fragments_run == []
        assert self.runtime_state(runtime) == before
        assert runtime.cache_info()["fragment_entries"] == 0

        result, trace = run()
        assert result.sorted_rows() == [("tpa", 120.0)]
        assert len(sealed(trace)) == len(opened) == 4
        assert len(trace.fragments_run) == 4
