"""A subject's keyring: the key stores it decoded, kept per accepted key
section, and the payloads it opened, kept per authenticated body
(:mod:`repro.distributed.nodes`, *The keyring*).

A byte-identical section hands back the store decoded before, so the
DETERMINISTIC memos carry over between runs; any other section decodes
afresh; a grant or revoke empties the ring; a refused envelope never
reaches it; and no store is shared between two nodes."""

import struct
import sys
import threading

import pytest

from repro.core.cache import LRU
from repro.core.dispatch import dispatch
from repro.core.extension import minimally_extend
from repro.core.keys import QueryKey, establish_keys
from repro.core.requirements import EncryptionScheme
from repro.crypto.keymanager import DistributedKeys, KeyStore
from repro.crypto.rsa import generate_keypair
from repro.distributed import build_runtime
from repro.distributed import runtime as runtime_module
from repro.distributed.messages import (
    SubQueryPayload,
    decode_payload,
    encode_payload,
    open_envelope,
    seal_envelope,
)
from repro.distributed.nodes import KEYRING_SIZE
from repro.exceptions import CryptoError, DispatchError


class TestColdRounds:
    """The 17 SQL templates twice on one UAPenc service, tables swapped
    in before each round (the session fixture ``cold_rounds``)."""

    def test_second_cold_round_pays_no_deterministic_seal(
            self, cold_rounds):
        """Each run decoded a fresh store before, so its memo started
        cold and a second round paid 14,953 seals again; a section the
        node already holds brings its memo along.  The first round's
        11,973 was 14,973 while Q5 joined in FROM order: owner-first,
        Q5 pays 640 seals, not 3,640."""
        _, rounds = cold_rounds
        assert [counts["det paid"] for counts in rounds] == [11_973, 0]

    def test_keyring_counters_reach_the_service(self, cold_rounds):
        """Each round opens 53 envelopes.  The first decodes 30 sections
        and finds 23 already held (a keyless subject's empty section, and
        sections two templates share); the second is answered by the 53
        bodies the first remembered.  Every open counts once, so the
        counters read as they did before bodies were kept (76 / 30); the
        size was 30, sections alone."""
        service, _ = cold_rounds
        info = service.cache_info()
        assert (info["keyring_hits"], info["keyring_misses"]) == (76, 30)
        assert info["keyring_size"] == 30 + 53
        assert "keyrings " in service.describe()

    def test_no_store_is_shared_between_two_nodes(self, cold_rounds):
        """A remembered body's payload holds a store of its own node's
        ring: 30 stores over 83 entries."""
        service, _ = cold_rounds
        owners = {}
        for name, node in service.runtime.nodes.items():
            assert len(node.keyring) <= KEYRING_SIZE
            for entry in node.keyring.values():
                store = getattr(entry, "keystore", entry)
                assert isinstance(store, KeyStore)
                assert owners.setdefault(id(store), name) == name
        assert len(owners) == service.cache_info()["keyring_misses"] == 30


@pytest.fixture()
def fig_7a(example, example_tables):
    """Fig. 7(a) on a fresh runtime: ``run(keys)`` runs its one dispatch
    plan under the given ``DistributedKeys``, every fragment executing
    unless ``cold=False``; ``fresh()`` makes a key set."""
    extended = minimally_extend(example.plan, example.policy,
                                example.assignment_7a(),
                                owners=example.owners)
    assignment = establish_keys(extended, example.policy)
    plan = dispatch(extended, assignment, owners=example.owners, user="U")
    runtime = build_runtime(
        example.policy, list(example.subjects),
        {"H": {"Hosp": example_tables["Hosp"]},
         "I": {"Ins": example_tables["Ins"]}}, user="U")

    def run(keys, cold=True):
        if cold:
            runtime.invalidate_caches()
        result, _ = runtime.run(plan, extended, assignment, keys)
        return result

    run.runtime = runtime
    run.fresh = lambda: DistributedKeys.from_assignment(assignment)
    run.subjects = {fragment.subject for fragment in plan.fragments.values()}
    return run


def opened_stores(monkeypatch):
    """Every store a run's opens hand back, in order."""
    stores = []
    original = runtime_module.open_envelope

    def recording(*args):
        payload = original(*args)
        stores.append(payload.keystore)
        return payload

    monkeypatch.setattr(runtime_module, "open_envelope", recording)
    return stores


def key_bytes(store):
    return sorted((name, store.material(name).symmetric,
                   getattr(store.material(name).paillier_public, "n", 0))
                  for name in store.names())


class TestSections:
    def test_same_section_same_store_fresh_keys_new_store(
            self, fig_7a, monkeypatch):
        """Re-running one dispatch plan: the held keys come back as the
        very stores decoded before; fresh ``DistributedKeys`` decode new
        stores carrying the new bytes, and the answer does not move."""
        stores = opened_stores(monkeypatch)
        held = fig_7a.fresh()
        first = fig_7a(held)
        decoded = list(stores)
        del stores[:]
        again = fig_7a(held)
        assert list(map(id, stores)) == list(map(id, decoded))
        fresh = fig_7a.fresh()
        del stores[:]
        rekeyed = fig_7a(fresh)
        # A subject sent no keys gets the one empty section back.
        keyed = [store for store in stores if len(store)]
        assert len(keyed) >= 3
        assert not set(map(id, keyed)) & set(map(id, decoded))
        assert sorted(map(key_bytes, stores)) == sorted(
            key_bytes(fresh.store_for(subject))
            for subject in fig_7a.subjects)
        assert rekeyed.sorted_rows() == again.sorted_rows() \
            == first.sorted_rows() == [("tpa", 120.0)]

    @pytest.mark.parametrize("delta", ["grant", "revoke"])
    def test_a_disjoint_delta_empties_every_ring(self, example, fig_7a,
                                                 delta):
        """Z plays no part in Fig. 7(a), so the plan stands; the
        keyrings, holding two sections and two bodies per subject, do
        not survive: after one run they hold one of each."""
        if delta == "grant":
            rule = example.policy.revoke("Hosp", "Z")
        held = fig_7a.fresh()
        first = fig_7a(held)
        fig_7a(fig_7a.fresh())
        runtime = fig_7a.runtime
        keyed = {subject for subject in fig_7a.subjects
                 if len(held.store_for(subject))}
        assert len(keyed) >= 3
        assert {len(runtime.nodes[s].keyring) for s in keyed} == {4}
        if delta == "grant":
            example.policy.grant(rule)
        else:
            example.policy.revoke("Hosp", "Z")
        hits = runtime.cache_info()["keyring_hits"]
        assert fig_7a(held).rows == first.rows
        assert runtime.cache_info()["keyring_hits"] == hits
        for node in runtime.nodes.values():
            assert len(node.keyring_at(example.policy.version)) \
                == 2 * (node.name in fig_7a.subjects)

    def test_concurrent_runs_count_every_open_once(self, fig_7a,
                                                   monkeypatch):
        """Six threads run the plan under two key sets at once, switching
        often: the ring is read and written under the subject's lock, so
        hits + misses is exactly the number of opens, no node holds more
        than the two sections and their two bodies, every store framed
        one body, and every answer is right."""
        key_sets = [fig_7a.fresh(), fig_7a.fresh()]
        opened = opened_stores(monkeypatch)
        results, failures = [], []

        def client(index):
            try:
                for turn in range(8):
                    results.append(fig_7a(key_sets[(index + turn) % 2],
                                          cold=False))
            except Exception as failure:  # reported by the assert below
                failures.append(failure)

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert len(results) == 48
        assert {tuple(r.sorted_rows()) for r in results} \
            == {(("tpa", 120.0),)}
        info = fig_7a.runtime.cache_info()
        assert info["keyring_hits"] + info["keyring_misses"] == len(opened)
        assert max(len(node.keyring)
                   for node in fig_7a.runtime.nodes.values()) == 4
        # Two threads that both missed a body store one value: each
        # subject's store of each key set holds exactly its one body.
        assert {len(keys.store_for(subject).bodies) for keys in key_sets
                for subject in fig_7a.subjects} == {1}

    def test_ring_holds_at_most_its_bound(self):
        ring = LRU(KEYRING_SIZE)
        for index in range(KEYRING_SIZE + 5):
            store = KeyStore.generate([QueryKey(
                frozenset({f"a{index}"}), EncryptionScheme.DETERMINISTIC)])
            decode_payload(encode_payload(
                SubQueryPayload("reqX", "q", store)), ring)
            assert len(ring) == min(index + 1, KEYRING_SIZE)
        assert ring.info()["misses"] == KEYRING_SIZE + 5


class TestRefusedEnvelopes:
    """An envelope whose section the ring already holds is still
    decrypted, tag-checked and verified first: a forgery raises and the
    ring is left as it was."""

    @pytest.fixture()
    def parties(self):
        recipient_public, recipient_private = generate_keypair(512)
        user_public, user_private = generate_keypair(512)
        payload = SubQueryPayload("reqX", "select 1", KeyStore.generate([
            QueryKey(frozenset({"S"}), EncryptionScheme.DETERMINISTIC)]))
        ring = LRU(KEYRING_SIZE)
        blob = seal_envelope(payload, user_private, recipient_public)
        store = open_envelope(blob, recipient_private, user_public,
                              ring).keystore
        assert open_envelope(blob, recipient_private, user_public,
                             ring).keystore is store
        return (payload, ring, blob, recipient_public, recipient_private,
                user_public, user_private)

    @staticmethod
    def snapshot(ring):
        return ring.info(), [id(store) for store in ring.values()]

    def test_spoofed_signature_raises_and_leaves_the_ring(self, parties):
        payload, ring, _, recipient_public, recipient_private, \
            user_public, user_private = parties
        before = self.snapshot(ring)
        _, impostor_private = generate_keypair(512)
        body = encode_payload(payload)
        framed = struct.pack(">I", len(body)) + body \
            + impostor_private.sign(body)
        spoofed = user_private.encrypt_for(recipient_public, framed)
        with pytest.raises(DispatchError, match="signature"):
            open_envelope(spoofed, recipient_private, user_public, ring)
        assert self.snapshot(ring) == before

    @pytest.mark.parametrize("offset", [10, -20, -1],
                             ids=["wrapped-key", "section", "tag"])
    def test_flipped_byte_raises_and_leaves_the_ring(self, parties,
                                                     offset):
        _, ring, blob, _, recipient_private, user_public, _ = parties
        before = self.snapshot(ring)
        tampered = bytearray(blob)
        tampered[offset] ^= 0x55
        with pytest.raises((CryptoError, DispatchError)):
            open_envelope(bytes(tampered), recipient_private, user_public,
                          ring)
        assert self.snapshot(ring) == before
