"""Envelopes, runtime execution, and enforcement."""

import pytest

from repro.core.dispatch import dispatch
from repro.core.extension import minimally_extend
from repro.core.keys import QueryKey, establish_keys
from repro.core.requirements import EncryptionScheme
from repro.crypto.keymanager import DistributedKeys, KeyStore
from repro.crypto.rsa import generate_keypair
from repro.distributed import EnvelopeRow, TableRow, build_runtime
from repro.distributed.messages import (
    SubQueryPayload,
    decode_payload,
    encode_payload,
    open_envelope,
    seal_envelope,
)
from repro.engine.values import AGGREGATE, PLAINTEXT
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
        decoded = decode_payload(encode_payload(SubQueryPayload(
            "reqX", "select 1", KeyStore([material])))) \
            .keystore.material("kCS")
        assert decoded.symmetric == material.symmetric
        assert decoded.query_key == material.query_key

    def test_envelope_roundtrip_and_signature(self):
        sender_pub, sender_priv = generate_keypair(512)
        recipient_pub, recipient_priv = generate_keypair(512)
        payload = self.make_payload()
        blob = seal_envelope(payload, sender_priv, recipient_pub)
        received = open_envelope(blob, recipient_priv, sender_pub)
        assert received.query_text == payload.query_text

    def test_paillier_key_from_an_envelope_keeps_its_primes(self):
        sender_pub, sender_priv = generate_keypair(512)
        recipient_pub, recipient_priv = generate_keypair(512)
        payload = self.make_payload()
        blob = seal_envelope(payload, sender_priv, recipient_pub)
        received = open_envelope(blob, recipient_priv, sender_pub)
        sent = payload.keystore.material_for_attribute("P").paillier_private
        opened = received.keystore.material_for_attribute(
            "P").paillier_private
        assert (opened.p, opened.q) == (sent.p, sent.q)
        ciphertext = sent.public.encrypt(-7.25)
        assert opened.decrypt(ciphertext) == -7.25

    def test_wrong_sender_key_rejected(self):
        _, sender_priv = generate_keypair(512)
        impostor_pub, _ = generate_keypair(512)
        recipient_pub, recipient_priv = generate_keypair(512)
        blob = seal_envelope(self.make_payload(), sender_priv,
                             recipient_pub)
        with pytest.raises(DispatchError):
            open_envelope(blob, recipient_priv, impostor_pub)

    def test_malformed_payload_rejected(self):
        # Text is not a body: its first two bytes, b"no", read as the
        # length of a 28,271-byte fragment id that is not there.
        with pytest.raises(DispatchError, match="truncated"):
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

    def test_figure_8_delivery_by_delivery(self, example, example_tables):
        """Fig. 7(a) run as Fig. 8 dispatches it: one envelope per
        subject carrying its sub-query and Fig. 8's key column, then
        the relations of Fig. 6, each column sealed exactly where its
        profile has it visible encrypted, and one final row to U.  The
        transfer counters read these rows."""
        _, trace = self.run_7a(example, example_tables)
        envelopes = [row for row in trace.deliveries
                     if isinstance(row, EnvelopeRow)]
        tables = [row for row in trace.deliveries
                  if isinstance(row, TableRow)]
        assert [(row.sender, row.recipient, row.fragments, row.keys)
                for row in envelopes] == [
            ("U", "H", ("reqH",), {"kCS"}),
            ("U", "I", ("reqI",), {"kCS", "kP"}),
            ("U", "X", ("reqX",), set()),
            ("U", "Y", ("reqY",), {"kP"}),
        ]
        det = ("kCS", EncryptionScheme.DETERMINISTIC)
        assert [(row.fragment, row.sender, row.recipient, row.into,
                 row.node.label(), row.columns, row.representations,
                 row.cardinality) for row in tables] == [
            ("reqH", "H", "X", "reqX", "enc[S]", ("S", "D", "T"),
             (det, PLAINTEXT, PLAINTEXT), 4),
            ("reqI", "I", "X", "reqX", "enc[C,P]", ("C", "P"),
             (det, ("kP", EncryptionScheme.PAILLIER)), 5),
            ("reqX", "X", "Y", "reqY", "γ[T; avg(P)]", ("T", "P"),
             (PLAINTEXT, ("kP", AGGREGATE)), 2),
            ("reqY", "Y", "U", None, "σ[P>100]", ("T", "P"),
             (PLAINTEXT, PLAINTEXT), 1),
        ]
        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7a(),
            owners=example.owners)
        profiles = {node.label(): profile for node, profile
                    in extended.plan.profiles().items()}
        for row in tables:
            assert {column for column, kind
                    in zip(row.columns, row.representations)
                    if kind != PLAINTEXT} \
                == profiles[row.node.label()].visible_encrypted
        assert {row.version for row in trace.deliveries} \
            == {example.policy.version}
        assert trace.messages == len(envelopes) + len(tables) - 1
        assert trace.envelope_bytes == sum(row.bytes for row in envelopes)
        assert trace.rows_transferred == 4 + 5 + 2 + 1

    def test_trace_accounting_parallel(self, example, example_tables):
        _, trace = self.run_7a(example, example_tables)
        assert trace.messages == 7
        assert trace.envelope_bytes > 0
        # The four fragments are requested exactly once each.
        assert sorted(f for f, _ in trace.fragments_run) == [
            "reqH", "reqI", "reqX", "reqY",
        ]

    def test_each_node_run_has_one_row_and_a_cache_hit_none(
            self, example, example_tables):
        """``trace.nodes``: every node a fragment evaluates has one row,
        tagged with the fragment and the subject that ran it; a run
        served from the fragment cache adds none."""
        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7a(),
            owners=example.owners)
        keys = establish_keys(extended, example.policy)
        plan = dispatch(extended, keys, owners=example.owners, user="U")
        runtime = build_runtime(
            example.policy, list(example.subjects),
            {"H": {"Hosp": example_tables["Hosp"]},
             "I": {"Ins": example_tables["Ins"]}}, user="U")
        distributed = DistributedKeys.from_assignment(keys)
        result, trace = runtime.run(plan, extended, keys, distributed)
        assert sorted((fragment, subject, id(node))
                      for fragment, subject, node, *_ in trace.nodes) \
            == sorted((fragment.fragment_id, fragment.subject, id(node))
                      for fragment in plan.fragments.values()
                      for node in fragment.nodes)
        root = plan.fragment(plan.root_fragment_id).root
        (rows_out,) = [row[4] for row in trace.nodes if row[2] is root]
        assert rows_out == len(result)
        # enc[S] seals the 4 strokes, enc[C,P] 5 cells of each column;
        # dec[P] opens the two groups' averages.
        assert sum(row[5] for row in trace.nodes) == 4 + 5 + 5
        assert sum(row[6] for row in trace.nodes) == 2
        again, trace = runtime.run(plan, extended, keys, distributed)
        assert again is result
        assert trace.fragment_cache_hits == len(plan.fragments)
        assert trace.nodes == []

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
