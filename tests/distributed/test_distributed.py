"""Envelopes, runtime execution, and enforcement."""

import pytest

from repro.core.dispatch import dispatch
from repro.core.extension import minimally_extend
from repro.core.keys import QueryKey, establish_keys
from repro.core.requirements import EncryptionScheme
from repro.crypto.keymanager import DistributedKeys, KeyStore
from repro.crypto.rsa import generate_keypair
from repro.distributed import build_runtime
from repro.distributed.messages import (
    SubQueryPayload,
    decode_payload,
    deserialize_key_material,
    encode_payload,
    open_envelope,
    seal_envelope,
    serialize_key_material,
)
from repro.exceptions import DispatchError, UnauthorizedError


class TestMessages:
    def make_payload(self):
        store = KeyStore.generate([
            QueryKey(frozenset({"S", "C"}),
                     EncryptionScheme.DETERMINISTIC),
            QueryKey(frozenset({"P"}), EncryptionScheme.PAILLIER),
        ])
        return SubQueryPayload("reqX", "select 1", store)

    def test_payload_roundtrip(self):
        payload = self.make_payload()
        decoded = decode_payload(encode_payload(payload))
        assert decoded.fragment_id == "reqX"
        assert decoded.keystore.names() == payload.keystore.names()
        # Paillier private parts travel with the material.
        material = decoded.keystore.material_for_attribute("P")
        assert material.paillier_private is not None

    def test_key_material_roundtrip(self):
        payload = self.make_payload()
        material = payload.keystore.material("kCS")
        decoded = deserialize_key_material(
            serialize_key_material(material))
        assert decoded.symmetric == material.symmetric
        assert decoded.query_key == material.query_key

    def test_envelope_roundtrip_and_signature(self):
        sender_pub, sender_priv = generate_keypair(512)
        recipient_pub, recipient_priv = generate_keypair(512)
        payload = self.make_payload()
        blob = seal_envelope(payload, sender_priv, recipient_pub)
        received = open_envelope(blob, recipient_priv, sender_pub)
        assert received.query_text == payload.query_text

    def test_wrong_sender_key_rejected(self):
        _, sender_priv = generate_keypair(512)
        impostor_pub, _ = generate_keypair(512)
        recipient_pub, recipient_priv = generate_keypair(512)
        blob = seal_envelope(self.make_payload(), sender_priv,
                             recipient_pub)
        with pytest.raises(DispatchError):
            open_envelope(blob, recipient_priv, impostor_pub)

    def test_malformed_payload_rejected(self):
        with pytest.raises(DispatchError):
            decode_payload(b"not json")


class TestRuntime:
    def run_7a(self, example, example_tables):
        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7a(),
            owners=example.owners,
        )
        keys = establish_keys(extended, example.policy)
        plan = dispatch(extended, keys, owners=example.owners, user="U")
        runtime = build_runtime(
            example.policy, list(example.subjects),
            {"H": {"Hosp": example_tables["Hosp"]},
             "I": {"Ins": example_tables["Ins"]}},
            user="U",
        )
        return runtime.run(plan, extended, keys,
                           DistributedKeys.from_assignment(keys))

    def test_end_to_end_result(self, example, example_tables):
        result, _ = self.run_7a(example, example_tables)
        assert result.sorted_rows() == [("tpa", 120.0)]

    def test_trace_accounting(self, example, example_tables):
        _, trace = self.run_7a(example, example_tables)
        # 4 envelopes + 3 inter-fragment transfers.
        assert trace.messages == 7
        assert trace.envelope_bytes > 0
        # The Figure 8 recursion is demand-driven: root first.
        assert [f for f, _ in trace.fragments_run] == [
            "reqY", "reqX", "reqH", "reqI",
        ]

    def test_trace_accounting_parallel(self, example, example_tables):
        _, trace = self.run_7a(example, example_tables)
        assert trace.messages == 7
        assert trace.envelope_bytes > 0
        # The four fragments are requested exactly once each.
        assert sorted(f for f, _ in trace.fragments_run) == [
            "reqH", "reqI", "reqX", "reqY",
        ]

    def test_enforcement_blocks_unauthorized_profile(self, example,
                                                     example_tables):
        # Build an extension without verification for an assignment NOT
        # in Λ (I cannot host the join); the runtime must refuse it.
        bad = dict(example.assignment_7a())
        bad[example.join] = "I"
        extended = minimally_extend(
            example.plan, example.policy, bad, owners=example.owners,
            verify=False,
        )
        keys = establish_keys(extended, None)
        plan = dispatch(extended, keys, owners=example.owners, user="U")
        runtime = build_runtime(
            example.policy, list(example.subjects),
            {"H": {"Hosp": example_tables["Hosp"]},
             "I": {"Ins": example_tables["Ins"]}},
            user="U",
        )
        with pytest.raises(UnauthorizedError):
            runtime.run(plan, extended, keys,
                        DistributedKeys.from_assignment(keys))

    def test_value_level_guard_catches_plaintext_leak(self, example,
                                                      example_tables):
        # Strip all encryption operations from the 7(a) plan: X then
        # receives plaintext S, C, P — the value-level guard must fire.
        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7a(),
            owners=example.owners,
        )
        stripped_plan = extended.plan.strip_crypto_nodes()
        # Rebuild the bookkeeping for the stripped plan.
        from repro.core.extension import ExtendedPlan

        label_assign = {}
        for node, subject in extended.assignment.items():
            label_assign[node.label()] = subject
        new_assignment = {}
        for node in stripped_plan.postorder():
            if not node.is_leaf and node.label() in label_assign:
                new_assignment[node] = label_assign[node.label()]
        stripped = ExtendedPlan(
            plan=stripped_plan, original=example.plan,
            assignment=new_assignment,
            encrypted_attributes=frozenset(),
        )
        keys = establish_keys(stripped, None)
        plan = dispatch(stripped, keys, owners=example.owners, user="U")
        runtime = build_runtime(
            example.policy, list(example.subjects),
            {"H": {"Hosp": example_tables["Hosp"]},
             "I": {"Ins": example_tables["Ins"]}},
            user="U",
        )
        with pytest.raises(UnauthorizedError):
            runtime.run(plan, stripped, keys,
                        DistributedKeys.from_assignment(keys))

    def test_missing_runtime_node(self, example):
        with pytest.raises(DispatchError):
            build_runtime(example.policy, [], {}, user="U")
