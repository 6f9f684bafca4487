"""Incremental policy engine ≡ from-scratch recomputation (ISSUE 6).

Randomized grant/revoke streams drive the delta journal and every
delta-aware consumer; after each mutation the incrementally maintained
state must match a from-scratch recomputation exactly:

* :func:`~repro.core.assignment.assign` running over the reconciled
  :class:`~repro.core.plancache.AssignmentCache` and a shared
  :class:`~repro.core.assignment.EdgeTableCache` must pick the same
  assignment at the same cost as an uncached, cache-free run — on the
  running example and the TPC-H ablation queries (Q3/Q5/Q18) alike,
  including under :data:`~repro.core.authorization.ANY` churn,
  revoke-then-regrant, and a truncated or disabled journal, and must
  refuse exactly when the fresh run refuses.

The streams are seeded, so failures reproduce deterministically.
"""

import random

import pytest

from repro.core.assignment import EdgeTableCache, assign
from repro.core.authorization import ANY, Authorization, Policy
from repro.core.plancache import AssignmentCache
from repro.cost.pricing import PriceList
from repro.exceptions import ReproError


def churn(rng, policy, schema, relation_names, subject_pool):
    """Apply one random *effective* policy mutation.

    Revokes the (relation, subject) pair's rule if present, then — most
    of the time — grants a fresh random rule for the pair, so the stream
    mixes plain revokes, plain grants, and revoke-then-regrant (the rule
    occasionally comes back identical to the one removed).
    """
    relation = schema.relation(rng.choice(relation_names))
    subject = rng.choice(subject_pool)
    removed = policy.revoke(relation.name, subject)
    if removed is not None and rng.random() < 0.35:
        return
    names = list(relation.attribute_names)
    rng.shuffle(names)
    count = rng.randint(1, len(names))
    split = rng.randint(0, count)
    policy.grant(Authorization(
        relation, names[:split], names[split:count], subject))


class TestCachedAssignMatchesFresh:
    """assign() over reconciled caches ≡ assign() with no caches at all."""

    def run_stream(self, plan, policy, subject_names, prices, user,
                   owners, schema, relation_names, pool, seed,
                   steps=25):
        rng = random.Random(seed)
        cache = AssignmentCache(maxsize=64)
        edge_cache = EdgeTableCache()
        agreements = 0
        for step in range(steps):
            churn(rng, policy, schema, relation_names, pool)

            def cached():
                return assign(plan, policy, subject_names, prices,
                              user=user, owners=owners, cache=cache,
                              edge_cache=edge_cache)

            try:
                fresh = assign(plan, policy, subject_names, prices,
                               user=user, owners=owners)
            except ReproError as error:
                with pytest.raises(type(error)):
                    cached()
                continue
            warm = cached()
            assert warm.cost.total_usd == pytest.approx(
                fresh.cost.total_usd, rel=1e-9), step
            assert {n.label(): s for n, s in warm.assignment.items()} == \
                {n.label(): s for n, s in fresh.assignment.items()}, step
            agreements += 1
        return agreements, cache, edge_cache

    def test_running_example_stream(self, example):
        prices = PriceList.from_subjects(example.subjects)
        pool = list(example.subject_names) + [ANY]
        agreements, cache, edge_cache = self.run_stream(
            example.plan, example.policy, example.subject_names, prices,
            "U", example.owners, example.schema, ["Hosp", "Ins"], pool,
            seed=1717)
        assert agreements > 0
        info = cache.info()
        reconciled = info["reconcile_kept"] + info["reconcile_evicted"] \
            + info["reconcile_flushed"]
        assert reconciled > 0
        assert edge_cache.info()["hits"] > 0

    @pytest.mark.parametrize("scenario_name", ["UA", "UAPmix"])
    @pytest.mark.parametrize("query_number", [3, 5, 18])
    def test_tpch_ablation_stream(self, scenario_name, query_number):
        from repro.tpch.queries import query_plan
        from repro.tpch.scenarios import scenario
        from repro.tpch.schema import build_tpch_schema

        schema = build_tpch_schema()
        bundle = scenario(scenario_name, schema)
        prices = PriceList.from_subjects(bundle.subjects)
        plan = query_plan(query_number, schema)
        relation_names = sorted(schema.relations)
        pool = list(bundle.subject_names) + [ANY]
        agreements, _, _ = self.run_stream(
            plan, bundle.policy, bundle.subject_names, prices,
            bundle.user, bundle.owners, schema, relation_names, pool,
            seed=900 + query_number, steps=12)
        assert agreements > 0

    def test_revoke_then_regrant_serves_identical_assignment(self,
                                                             example):
        prices = PriceList.from_subjects(example.subjects)
        cache = AssignmentCache(maxsize=64)
        edge_cache = EdgeTableCache()

        def run():
            return assign(example.plan, example.policy,
                          example.subject_names, prices, user="U",
                          owners=example.owners, cache=cache,
                          edge_cache=edge_cache)

        first = run()
        rule = example.policy.revoke("Ins", "Y")
        example.policy.grant(rule)
        second = run()
        # Y's churn evicts the memoised entry (it is a dependency), and
        # the recomputation lands on the same optimum.
        assert cache.info()["reconcile_evicted"] >= 1
        assert second.cost.total_usd == pytest.approx(
            first.cost.total_usd, rel=1e-12)
        assert {n.label(): s for n, s in second.assignment.items()} == \
            {n.label(): s for n, s in first.assignment.items()}

    def test_journal_disabled_policy_still_correct(self, example):
        # journal_limit=0 turns every reconcile into a flush: the cached
        # path degrades to PR 2 behaviour but must never serve staleness.
        example.policy.journal_limit = 0
        prices = PriceList.from_subjects(example.subjects)
        pool = list(example.subject_names) + [ANY]
        agreements, cache, _ = self.run_stream(
            example.plan, example.policy, example.subject_names, prices,
            "U", example.owners, example.schema, ["Hosp", "Ins"], pool,
            seed=4242, steps=12)
        assert agreements > 0
        assert cache.info()["reconcile_flushed"] > 0


class TestJournalSemantics:
    """deltas_since contract details the caches rely on."""

    def test_deltas_since_windows(self, example):
        policy = example.policy
        v0 = policy.version
        policy.revoke("Hosp", "Z")
        policy.revoke("Ins", "X")
        deltas = policy.deltas_since(v0)
        assert [d.version for d in deltas] == [v0 + 1, v0 + 2]
        assert policy.deltas_since(policy.version) == ()
        assert policy.deltas_since(policy.version + 1) is None  # future

    def test_truncation_returns_none(self):
        from repro.core.schema import Relation, Schema

        schema = Schema()
        relation = schema.add(Relation("R", ["a", "b"]))
        policy = Policy(schema, journal_limit=2)
        v0 = policy.version
        for subject in ("S1", "S2", "S3"):
            policy.grant(Authorization(relation, ["a"], [], subject))
        assert policy.deltas_since(v0) is None
        assert len(policy.deltas_since(policy.version - 2)) == 2

    def test_any_delta_touches_every_subject(self, example):
        v0 = example.policy.version
        assert example.policy.revoke("Hosp", ANY) is not None
        (delta,) = example.policy.deltas_since(v0)
        assert delta.any_subject
        assert delta.touches({"nobody-in-particular"})

    def test_disjoint_delta_does_not_touch(self, example):
        relation = example.schema.relation("Hosp")
        v0 = example.policy.version
        example.policy.grant(Authorization(relation, ["T"], [], "W"))
        (delta,) = example.policy.deltas_since(v0)
        assert not delta.touches({"Y", "Z"})
        assert not delta.touches({"W"}, frozenset({"P"}))
        assert delta.touches({"W"}, frozenset({"T"}))
