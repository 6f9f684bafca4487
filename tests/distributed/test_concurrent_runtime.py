"""One runtime under concurrent runs: enforcement, per-subject
serialization across runs, and the cross-run fragment cache.  (Class and
test names are the ids these cases have had since the runtime also had a
thread-pool schedule.)"""

import threading
import time

import pytest

from helpers import steady_latency
from repro.core.authorization import Authorization, Policy, Subject, \
    SubjectKind
from repro.core.dispatch import dispatch
from repro.core.extension import minimally_extend
from repro.core.keys import establish_keys
from repro.core.operators import BaseRelationNode, Join, Selection
from repro.core.plan import QueryPlan
from repro.core.predicates import (
    AttributeValuePredicate,
    ComparisonOp,
    equals,
)
from repro.core.schema import Relation, Schema
from repro.crypto.keymanager import DistributedKeys
from repro.distributed import build_runtime, enforcement, \
    generate_subject_keys
from repro.distributed import runtime as runtime_module
from repro.engine import Executor, Table
from repro.exceptions import CryptoError, DispatchError, UnauthorizedError


def pipeline_7a(example, example_tables, rsa_keys=None):
    """The Figure 7(a) pipeline, returning (runtime, run-callable)."""
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
        user="U", rsa_keys=rsa_keys,
    )
    distributed = DistributedKeys.from_assignment(keys)

    def run(**kwargs):
        return runtime.run(plan, extended, keys, distributed, **kwargs)

    run.dispatch_plan = plan
    return runtime, run


class TestEnforcementUnderConcurrency:
    def test_flipped_envelope_bytes_rejected(self, example,
                                             example_tables, monkeypatch):
        original = runtime_module.seal_envelope
        victims = []

        def tampering_seal(payload, sender_private, recipient_public):
            blob = original(payload, sender_private, recipient_public)
            if payload.fragment_id == "reqX":
                victims.append(payload.fragment_id)
                tampered = bytearray(blob)
                tampered[offset] ^= 0x55
                blob = bytes(tampered)
            return blob

        monkeypatch.setattr(runtime_module, "seal_envelope",
                            tampering_seal)
        # -1 is the hybrid tag; 10 sits inside the RSA-wrapped session
        # key, right after the 4-byte length prefix.
        for offset in (-1, 10):
            victims.clear()
            _, run = pipeline_7a(example, example_tables)
            # In-flight corruption breaks the hybrid encryption layer.
            with pytest.raises((DispatchError, CryptoError)):
                run()
            assert victims == ["reqX"]

    def test_spoofed_signature_rejected(self, example, example_tables,
                                        monkeypatch):
        from repro.crypto.rsa import generate_keypair

        _, impostor_private = generate_keypair(512)
        original = runtime_module.seal_envelope

        def spoofing_seal(payload, sender_private, recipient_public):
            if payload.fragment_id == "reqX":
                sender_private = impostor_private
            return original(payload, sender_private, recipient_public)

        monkeypatch.setattr(runtime_module, "seal_envelope",
                            spoofing_seal)
        _, run = pipeline_7a(example, example_tables)
        # A payload signed by anyone but the user fails verification.
        with pytest.raises(DispatchError, match="signature"):
            run()

    def test_unauthorized_profile_rejected_in_parallel(
            self, example, example_tables):
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

    def test_value_guard_fires_in_parallel(self, example, example_tables):
        # Strip all encryption: X then receives plaintext S, C, P.
        from repro.core.extension import ExtendedPlan

        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7a(),
            owners=example.owners,
        )
        stripped_plan = extended.plan.strip_crypto_nodes()
        label_assign = {
            node.label(): subject
            for node, subject in extended.assignment.items()
        }
        new_assignment = {
            node: label_assign[node.label()]
            for node in stripped_plan.postorder()
            if not node.is_leaf and node.label() in label_assign
        }
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


class TestSubjectSerialization:
    """Across concurrent runs, same-subject fragments never overlap;
    different subjects' do."""

    def build_scenario(self):
        schema = Schema()
        r1 = schema.add(Relation("R1", ["a", "b"], cardinality=100))
        r2 = schema.add(Relation("R2", ["c", "d"], cardinality=100))
        policy = Policy(schema)
        subjects = (
            Subject("U", SubjectKind.USER),
            Subject("A1", SubjectKind.AUTHORITY),
            Subject("A2", SubjectKind.AUTHORITY),
            Subject("P", SubjectKind.PROVIDER),
        )
        for relation, authority in ((r1, "A1"), (r2, "A2")):
            names = relation.attribute_names
            policy.grant(Authorization(relation, names, (), "U"))
            policy.grant(Authorization(relation, names, (), authority))
            policy.grant(Authorization(relation, names, (), "P"))
        left = Selection(BaseRelationNode(r1),
                         AttributeValuePredicate("b", ComparisonOp.GE, 0))
        right = Selection(BaseRelationNode(r2),
                          AttributeValuePredicate("d", ComparisonOp.GE, 0))
        join = Join(left, right, equals("a", "c"))
        plan = QueryPlan(join)
        assignment = {left: "P", right: "P", join: "U"}
        owners = {"R1": "A1", "R2": "A2"}
        tables = {
            "A1": {"R1": Table("R1", ("a", "b"),
                               [(i, i) for i in range(4)])},
            "A2": {"R2": Table("R2", ("c", "d"),
                               [(i, i * 10) for i in range(4)])},
        }
        return (schema, policy, subjects, plan, assignment, owners,
                tables)

    RUNS = 4

    def test_same_subject_fragments_serialize(self, monkeypatch):
        (_, policy, subjects, plan, assignment, owners,
         tables) = self.build_scenario()
        extended = minimally_extend(plan, policy, assignment,
                                    owners=owners, deliver_to="U")
        keys = establish_keys(extended, policy)
        distributed = DistributedKeys.from_assignment(keys)
        # One dispatch plan per run: fragment results are cached per
        # plan, so every run really executes (and waits out the
        # simulated latency of) every fragment.
        plans = [dispatch(extended, keys, owners=owners, user="U")
                 for _ in range(self.RUNS)]
        by_subject = {}
        for fragment in plans[0].fragments.values():
            by_subject.setdefault(fragment.subject, []).append(
                fragment.fragment_id)
        assert len(by_subject["P"]) == 2  # two sibling selections at P

        runtime = build_runtime(
            policy, list(subjects), tables, user="U",
            fault_injector=steady_latency(0.02, subjects),
        )
        intervals = []  # list.append is atomic across the run threads
        original = runtime_module.DistributedRuntime._evaluate_fragment

        def recording(self, context, fragment, node, payload, view,
                      inputs):
            start = time.perf_counter()
            try:
                return original(self, context, fragment, node, payload,
                                view, inputs)
            finally:
                intervals.append(
                    (fragment.subject, start, time.perf_counter()))

        monkeypatch.setattr(runtime_module.DistributedRuntime,
                            "_evaluate_fragment", recording)
        outcomes = []

        def one_run(dispatch_plan):
            outcomes.append(runtime.run(dispatch_plan, extended, keys,
                                        distributed))

        threads = [threading.Thread(target=one_run, args=(dispatch_plan,))
                   for dispatch_plan in plans]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)

        plain = Executor({"R1": tables["A1"]["R1"],
                          "R2": tables["A2"]["R2"]}).execute(plan)
        assert len(outcomes) == self.RUNS
        for result, _ in outcomes:
            assert result.same_content(plain)
        requested = sum(len(trace.fragments_run) for _, trace in outcomes)
        assert requested == self.RUNS * len(plans[0].fragments)
        info = runtime.cache_info()
        assert info["fragment_hits"] + info["fragment_misses"] == requested

        def overlap(x, y):
            return min(x[2], y[2]) - max(x[1], y[1]) > 0

        assert len(intervals) == requested
        pairs = [(x, y) for i, x in enumerate(intervals)
                 for y in intervals[i + 1:]]
        # One subject serves one fragment at a time across all the runs;
        # different subjects serve different runs at the same time.
        assert not any(overlap(x, y) for x, y in pairs if x[0] == y[0])
        assert any(overlap(x, y) for x, y in pairs if x[0] != y[0])


class TestCrossRunCaches:
    def test_second_run_hits_fragment_cache(self, example,
                                            example_tables):
        runtime, run = pipeline_7a(example, example_tables)
        first, trace_first = run()
        assert trace_first.fragment_cache_hits == 0
        second, trace_second = run()
        assert second.rows == first.rows
        assert trace_second.fragment_cache_hits == \
            len(trace_second.fragments_run)

    def test_unrelated_revoke_keeps_fragment_cache_warm(
            self, example, example_tables):
        runtime, run = pipeline_7a(example, example_tables)
        first, _ = run()
        # Z plays no role in 7(a): the revoke's delta touches only Z, so
        # the reconcile pass rebases every cached fragment onto the new
        # version instead of flushing — the warm re-run stays warm.
        example.policy.revoke("Hosp", "Z")
        second, trace = run()
        assert second.rows == first.rows
        assert trace.fragment_cache_hits == len(trace.fragments_run)
        info = runtime.cache_info()
        assert info["fragment_kept"] > 0
        assert info["fragment_evicted"] == 0
        assert info["fragment_flushed"] == 0

    def test_unrelated_revoke_rebases_fragment_entries(self, example,
                                                       example_tables):
        runtime, run = pipeline_7a(example, example_tables)
        first, _ = run()

        def cached_entries():
            cache = runtime.fragments
            with cache._guard:
                return list(cache._plans[run.dispatch_plan].values())

        old_results = {id(entry.value[0]) for entry in cached_entries()}
        # The revoke leaves every other subject's view untouched, so the
        # very same result tables survive, rebased onto the new policy
        # version (a stale stamp would walk the same deltas again).
        example.policy.revoke("Hosp", "Z")
        second, trace = run()
        versions = {entry.version for entry in cached_entries()}
        new_results = {id(entry.value[0]) for entry in cached_entries()}
        assert versions == {example.policy.version}
        assert old_results == new_results
        assert second.rows == first.rows

    def test_revoked_authorization_rejected_on_warm_rerun(
            self, example, example_tables):
        runtime, run = pipeline_7a(example, example_tables)
        run()
        # X joins over encrypted C/P; with its Ins authorization revoked
        # the warm re-run must fail enforcement instead of serving the
        # memoized fragment results (the keystore signature is
        # unchanged, so only the delta reconcile catches this).  The
        # delta touches X over attributes in X's fragment footprint, so
        # under-invalidation is impossible: X's entries die.
        example.policy.revoke("Ins", "X")
        with pytest.raises(UnauthorizedError):
            run()
        info = runtime.cache_info()
        assert info["fragment_evicted"] > 0

    def test_changed_inputs_under_same_keystore_rerun_fresh(
            self, example, example_tables):
        runtime, run = pipeline_7a(example, example_tables)
        first, _ = run()
        assert first.sorted_rows() == [("tpa", 120.0)]
        # I's premiums change in place, and only I's cached fragment
        # dies (revoking and re-granting I's own rule touches no other
        # subject).  X and Y keep their entries and are delivered the
        # very same keys, but X's input from I is now a different table:
        # the cache keys on input identity, so X and then Y re-execute.
        runtime.nodes["I"].tables["Ins"] = Table("Ins", ("C", "P"), [
            ("s1", 250.0), ("s2", 90.0), ("s3", 200.0),
            ("s4", 60.0), ("s5", 50.0),
        ])
        example.policy.grant(example.policy.revoke("Ins", "I"))
        second, trace = run()
        assert second.sorted_rows() == [("tpa", 170.0)]
        assert trace.fragment_cache_hits == 1  # H's, the one unchanged

    def test_reexecution_repeats_every_interior_check(
            self, example, example_tables, monkeypatch):
        runtime, run = pipeline_7a(example, example_tables)
        calls = []
        original = enforcement.relation_authorized

        def counting(view, profile):
            calls.append(profile)
            return original(view, profile)

        monkeypatch.setattr(enforcement, "relation_authorized", counting)
        # Def. 4.1 once per operator a subject evaluates (leaf scans are
        # the subject's own data), plus the delivery to the user.
        expected = 1 + sum(
            not isinstance(node, BaseRelationNode)
            for fragment in run.dispatch_plan.fragments.values()
            for node in fragment.nodes)
        run()
        assert len(calls) == expected
        del calls[:]
        run()  # warm: every fragment served from the cache
        assert len(calls) == 1
        runtime.invalidate_caches()
        del calls[:]
        run()
        assert len(calls) == expected

    def test_invalidate_caches_drops_everything(self, example,
                                                example_tables):
        runtime, run = pipeline_7a(example, example_tables)
        run()
        assert runtime.cache_info()["fragment_entries"] > 0
        runtime.invalidate_caches()
        assert runtime.cache_info()["fragment_entries"] == 0
        _, trace = run()
        assert trace.fragment_cache_hits == 0

    def test_invalidate_during_run_cannot_repopulate_caches(
            self, example, example_tables, monkeypatch):
        runtime, run = pipeline_7a(example, example_tables)
        original = runtime_module.DistributedRuntime._evaluate
        fired = []

        def invalidating(self, *arguments):
            # Simulate a concurrent refresh landing while the first
            # fragment (reqH, sequentially innermost) is mid-evaluation.
            if not fired:
                fired.append(True)
                self.invalidate_caches()
            return original(self, *arguments)

        monkeypatch.setattr(runtime_module.DistributedRuntime,
                            "_evaluate", invalidating)
        result, _ = run()
        assert result.sorted_rows() == [("tpa", 120.0)]
        # reqH captured the pre-invalidation generation: its fragment
        # result must not be re-inserted; the three fragments that
        # started afterwards cache normally.
        assert runtime.cache_info()["fragment_entries"] == 3

    @pytest.mark.usefixtures("fresh_rsa_keys")
    def test_pregenerated_rsa_keys_are_used(self, example,
                                            example_tables):
        rsa_keys = generate_subject_keys(list(example.subjects))
        runtime, run = pipeline_7a(example, example_tables,
                                   rsa_keys=rsa_keys)
        for name, (public, private) in rsa_keys.items():
            assert runtime.nodes[name].rsa_public is public
            assert runtime.nodes[name].rsa_private is private
        result, _ = run()
        assert result.sorted_rows() == [("tpa", 120.0)]

    def test_key_ring_that_shares_a_keypair_is_refused(self, example,
                                                       example_tables):
        """With one keypair for two subjects either could open what is
        sealed for the other, the user's result included."""
        shared = generate_subject_keys(["U"])["U"]
        with pytest.raises(CryptoError, match="share an RSA modulus") \
                as refused:
            pipeline_7a(example, example_tables, rsa_keys=dict.fromkeys(
                [subject.name for subject in example.subjects], shared))
        assert "'H', 'I', 'U', 'X', 'Y', 'Z'" in str(refused.value)
        with pytest.raises(CryptoError, match=r"\[\['U', 'X'\]\]"):
            pipeline_7a(example, example_tables,
                        rsa_keys={"U": shared, "X": shared})


@pytest.mark.usefixtures("fresh_rsa_keys")
class TestEnvelopeRsaCost:
    def test_warm_query_costs_two_half_width_modexps_per_private_op(
            self, example, example_tables, monkeypatch):
        """Clock-free guard on the envelope cost of a query: one envelope
        per subject; cold, one signature and one session unwrap each,
        every private op two half-modulus exponentiations; warm, every
        signature served by the sign memo and every session key by the
        unwrap memo, so no private op at all.  Each warm envelope is
        still decrypted and tag-checked, and then answered by the
        recipient's keyring: its bytes verified there last run, so no
        verify is called and no public modexp is paid (a warm run paid
        one verify-memo hit per envelope before bodies were kept)."""
        from repro.crypto import rsa as rsa_module
        from repro.crypto.rsa import DEFAULT_RSA_BITS

        _, run = pipeline_7a(example, example_tables)

        modexps = []
        envelopes = []
        verify = rsa_module.RsaPublicKey.verify

        def counting_pow(base, exponent, modulus):
            modexps.append((exponent.bit_length(), modulus.bit_length()))
            return pow(base, exponent, modulus)

        def counted(function):
            def wrapper(*args):
                envelopes.append(function.__name__)
                return function(*args)
            return wrapper

        monkeypatch.setattr(rsa_module, "pow", counting_pow, raising=False)
        monkeypatch.setattr(rsa_module.RsaPublicKey, "verify",
                            counted(verify))
        for name in ("seal_envelope", "open_envelope"):
            monkeypatch.setattr(runtime_module, name,
                                counted(getattr(runtime_module, name)))
        cold, trace = run()
        subjects = {subject for _, subject in trace.fragments_run}
        private = [m for e, m in modexps if e > 17]
        assert len(private) == 2 * 2 * len(subjects)
        assert max(private) <= DEFAULT_RSA_BITS // 2 + 1

        del modexps[:], envelopes[:]
        warm, trace = run()
        assert warm.rows == cold.rows
        assert envelopes.count("seal_envelope") \
            == envelopes.count("open_envelope") \
            == len(subjects) > 0
        assert envelopes.count("verify") == 0
        assert [m for e, m in modexps if e > 17] == []
        assert modexps == []
