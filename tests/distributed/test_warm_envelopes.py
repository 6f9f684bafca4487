"""Warm dispatch (:mod:`repro.distributed.messages`, *Warm dispatch*):
the user frames each subject's signed body once per key store, and a
subject answers a body it authenticated before from its keyring.

Every envelope is still sealed under a fresh IV and tag-checked on
open; only bytes that verified on that node, body and signature alike,
skip the verify; a re-key frames new bodies; and a policy move empties
the remembered bodies with the sections."""

import struct

import pytest

from repro.core.cache import LRU
from repro.crypto.keymanager import DistributedKeys, KeyStore
from repro.crypto.rsa import RsaPublicKey, generate_keypair
from repro.distributed import runtime as runtime_module
from repro.distributed.messages import (
    SubQueryPayload,
    encode_payload,
    keystore_signature,
    open_envelope,
    seal_envelope,
)
from repro.distributed.nodes import KEYRING_SIZE
from repro.exceptions import CryptoError, DispatchError

from test_concurrent_runtime import pipeline_7a
from test_envelope_batching import Query, record_reached, tpch  # noqa: F401

RUNNING_SQL = ("select T, avg(P) from Hosp join Ins on S=C "
               "where D='stroke' group by T having avg(P)>100")


@pytest.fixture()
def service(example, example_tables):
    from repro.service import QueryService

    return QueryService(
        example.schema, example.policy, example.subjects, example.owners,
        {"H": {"Hosp": example_tables["Hosp"]},
         "I": {"Ins": example_tables["Ins"]}}, user="U")


def subject_of(runtime, private):
    """The node holding RSA key ``private``."""
    name, = (name for name, node in runtime.nodes.items()
             if node.rsa_private is private)
    return name


def recorded(monkeypatch, name):
    """Rebind the runtime's ``name``; returns the list of (args,
    result) of every call."""
    calls = []
    original = getattr(runtime_module, name)

    def recording(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(runtime_module, name, recording)
    return calls


def count_verifies(monkeypatch):
    calls = []
    verify = RsaPublicKey.verify

    def counting(self, message, signature):
        calls.append(message)
        return verify(self, message, signature)

    monkeypatch.setattr(RsaPublicKey, "verify", counting)
    return calls


class TestWarmRuns:
    def test_fresh_wire_bytes_around_one_framed_body(
            self, example, example_tables, monkeypatch):
        """Two warm runs of Fig. 7(a): each subject's envelope differs
        on the wire (a fresh IV, so a fresh tag) and carries the very
        same framed body, which the sender framed once."""
        runtime, run = pipeline_7a(example, example_tables)
        run()
        sealed = recorded(monkeypatch, "seal_envelope")
        run()
        run()
        by_subject = {}
        for (payload, _, recipient), blob in sealed:
            subject, = (name for name, node in runtime.nodes.items()
                        if node.rsa_public is recipient)
            by_subject.setdefault(subject, []).append((payload, blob))
        assert len(by_subject) >= 3
        for subject, ((first, one), (second, two)) in by_subject.items():
            assert one != two
            # One session: the wrapped key is shared, the IV is not.
            assert one[:4 + 64] == two[:4 + 64]
            assert one[4 + 64:4 + 64 + 16] != two[4 + 64:4 + 64 + 16]
            private = runtime.nodes[subject].rsa_private
            framed = private.decrypt(one)
            assert private.decrypt(two) == framed
            (length,) = struct.unpack(">I", framed[:4])
            assert framed[4:4 + length] == encode_payload(second)
            assert first.keystore is second.keystore
            assert list(first.keystore.bodies.values()) == [framed]

    def test_a_warm_open_is_answered_by_the_keyring(
            self, example, example_tables, monkeypatch):
        runtime, run = pipeline_7a(example, example_tables)
        cold, _ = run()
        opened = recorded(monkeypatch, "open_envelope")
        verifies = count_verifies(monkeypatch)
        hits = runtime.cache_info()["keyring_hits"]
        warm, _ = run()
        assert warm.rows == cold.rows
        assert verifies == []
        assert runtime.cache_info()["keyring_hits"] - hits == len(opened)
        # The payload opened last run, its store and memos included.
        for (_, _, _, keyring), payload in opened:
            assert any(entry is payload for entry in keyring.values())


class TestWarmTampering:
    @pytest.mark.parametrize("offset", [-1, -20, 10],
                             ids=["tag", "body", "wrapped-key"])
    def test_flipped_byte_in_a_warm_envelope_stops_the_subject(
            self, tpch, offset, monkeypatch):
        """A2's body is remembered from the first run; the second run's
        envelope, one byte flipped, is refused before the ring is
        consulted, and no fragment of A2 runs."""
        query = Query(tpch, 3)
        runtime = query.runtime()
        query.run(runtime)
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
            query.run(runtime)
        assert victims == ["reqA2"]
        for stage in reached.values():
            assert "A2" not in {subject for subject, _ in stage}


class TestRememberedBodies:
    @pytest.fixture()
    def parties(self):
        """A recipient's ring holding one authenticated body."""
        recipient_public, recipient_private = generate_keypair(512)
        user_public, user_private = generate_keypair(512)
        payload = SubQueryPayload("reqX", "select 1", KeyStore())
        ring = LRU(KEYRING_SIZE)
        opened = open_envelope(
            seal_envelope(payload, user_private, recipient_public),
            recipient_private, user_public, ring)
        return (payload, ring, opened, recipient_public, recipient_private,
                user_public, user_private)

    def test_a_spoofed_signature_on_a_remembered_body_fails_verify(
            self, parties, monkeypatch):
        """The body is one the ring remembers, the signature an
        impostor's: the bytes miss, so the signature is verified — and
        fails, every time it is sent."""
        payload, ring, _, recipient_public, recipient_private, \
            user_public, user_private = parties
        _, impostor_private = generate_keypair(512)
        body = encode_payload(payload)
        framed = struct.pack(">I", len(body)) + body \
            + impostor_private.sign(body)
        before = ring.info(), list(ring.values())
        verifies = count_verifies(monkeypatch)
        for _ in range(2):
            spoofed = user_private.encrypt_for(recipient_public, framed)
            with pytest.raises(DispatchError, match="signature"):
                open_envelope(spoofed, recipient_private, user_public, ring)
        assert verifies == [body, body]
        assert (ring.info(), list(ring.values())) == before

    def test_a_body_remembered_from_one_sender_is_verified_for_another(
            self, parties):
        """The ring keys a body by its sender's key as well: the same
        framed bytes sent under another user's key are verified under
        that key, and fail."""
        payload, ring, _, recipient_public, recipient_private, \
            user_public, user_private = parties
        other_public, other_private = generate_keypair(512)
        framed = recipient_private.decrypt(
            seal_envelope(payload, user_private, recipient_public))
        replayed = other_private.encrypt_for(recipient_public, framed)
        with pytest.raises(DispatchError, match="signature"):
            open_envelope(replayed, recipient_private, other_public, ring)

    def test_the_same_bytes_open_to_the_remembered_payload(self, parties):
        payload, ring, opened, recipient_public, recipient_private, \
            user_public, user_private = parties
        again = open_envelope(
            seal_envelope(payload, user_private, recipient_public),
            recipient_private, user_public, ring)
        assert again is opened
        assert ring.info()["hits"] == 1


class TestReKeying:
    def test_an_adopting_replan_delivers_the_new_key_sections(
            self, example, service, monkeypatch):
        """Revoking Z's Hosp rule evicts the plan; the re-plan lands on
        it and adopts its dispatch plan, but mints new keys.  Every
        subject sent a key gets the new section — its framed body was
        kept on the old store, which the new key set does not hold."""
        opened = recorded(monkeypatch, "open_envelope")
        runtime = service.runtime

        def delivered():
            sections = {subject_of(runtime, private): payload.keys_signature
                        for (_, private, _, _), payload in opened}
            del opened[:]
            return sections

        before = service.execute(RUNNING_SQL)
        old_sections = delivered()
        example.policy.revoke("Hosp", "Z")
        after = service.execute(RUNNING_SQL)
        new_sections = delivered()
        assert after.reconcile.get("assignment_adopted") == 1
        (old_keys, old_plan), = before.assignment.derived
        (new_keys, new_plan), = after.assignment.derived
        assert new_plan is old_plan and new_keys is not old_keys
        assert after.result.sorted_rows() == before.result.sorted_rows()
        assert new_sections.keys() == old_sections.keys()
        keyed = {subject for subject in new_sections
                 if len(new_keys.store_for(subject))}
        assert keyed == {"H", "I"}
        for subject in keyed:
            assert old_sections[subject] \
                == keystore_signature(old_keys.store_for(subject))
            assert new_sections[subject] \
                == keystore_signature(new_keys.store_for(subject))
            assert new_sections[subject] != old_sections[subject]


class TestPolicyMove:
    def test_a_policy_move_empties_the_remembered_bodies(
            self, example, example_tables, monkeypatch):
        """A grant to a subject outside Fig. 7(a) leaves the plan, the
        keys and so the framed bodies as they were; every ring is
        emptied all the same, its bodies with its sections, so the next
        run verifies every envelope again."""
        from repro.core.authorization import Authorization

        runtime, run = pipeline_7a(example, example_tables)
        run()
        run()
        subjects = {f.subject for f in run.dispatch_plan.fragments.values()}
        for subject in subjects:
            kinds = {type(entry) for entry in runtime.nodes[subject]
                     .keyring.values()}
            assert kinds == {KeyStore, SubQueryPayload}
        example.policy.grant(Authorization(
            example.schema.relation("Hosp"), ["T"], ["D"], "Auditor"))
        verifies = count_verifies(monkeypatch)
        hits = runtime.cache_info()["keyring_hits"]
        run()
        assert len(verifies) == len(subjects)
        assert runtime.cache_info()["keyring_hits"] == hits
        for subject in subjects:
            assert len(runtime.nodes[subject].keyring) == 2


def test_a_keyless_subject_is_framed_around_one_store():
    """The user frames a keyless subject's body around the one empty
    store its key set keeps for it, so it too is framed once."""
    from repro.core.keys import KeyAssignment

    keys = DistributedKeys.from_assignment(KeyAssignment(keys=(),
                                                         distribution={}))
    _, sender = generate_keypair(512)
    recipient, _ = generate_keypair(512)
    for _ in range(2):
        seal_envelope(SubQueryPayload("reqU", "select 1",
                                      keys.store_for("U")),
                      sender, recipient)
    assert len(keys.store_for("U").bodies) == 1
