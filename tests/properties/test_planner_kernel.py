"""Property tests for the planner's bitset kernel and memoized DP.

Two equivalence obligations from ISSUE 2:

* the mask-backed profile algebra and Definition 4.1/4.2 checks of
  :mod:`repro.core.attrsets` agree with the frozenset semantics of
  :mod:`repro.core.profile` / :mod:`repro.core.visibility` on random
  profiles and views;
* the decomposed, memoized DP picks cost-identical assignments to the
  per-pair reference implementation (``tests/oracles/dp_reference.py``)
  on the running example, the TPC-H ablation queries (Q3/Q5/Q18), and
  the random scenarios.
"""

import random

import pytest

from repro.core.assignment import _AssignmentSearch, assign
from repro.core.attrsets import (
    AttributeUniverse,
    relation_authorized,
)
from repro.core.authorization import SubjectView
from repro.core.equivalence import EquivalenceClasses
from repro.core.profile import RelationProfile
from repro.core.visibility import check_relation
from repro.cost.pricing import PriceList
from repro.exceptions import (
    NoCandidateError,
    ProfileError,
    ReproError,
)

from oracles.dp_reference import dp_reference, edge_cost

POOL = list("ABCDEFGHJK")


def random_profile(rng: random.Random) -> RelationProfile:
    """A random, internally consistent relation profile."""
    shuffled = POOL[:]
    rng.shuffle(shuffled)
    split = rng.randint(0, len(shuffled))
    vp = frozenset(shuffled[:split][:rng.randint(0, 5)])
    ve = frozenset(shuffled[split:][:rng.randint(0, 5)])
    ip = frozenset(rng.sample(POOL, rng.randint(0, 3)))
    ie = frozenset(rng.sample(POOL, rng.randint(0, 3)))
    classes = [
        rng.sample(POOL, rng.randint(2, 3))
        for _ in range(rng.randint(0, 3))
    ]
    return RelationProfile(
        visible_plaintext=vp,
        visible_encrypted=ve,
        implicit_plaintext=ip,
        implicit_encrypted=ie,
        equivalences=EquivalenceClasses(classes),
    )


def random_view(rng: random.Random) -> SubjectView:
    shuffled = POOL[:]
    rng.shuffle(shuffled)
    split = rng.randint(0, len(shuffled))
    return SubjectView(
        subject="S",
        plaintext=frozenset(shuffled[:split][:rng.randint(0, 7)]),
        encrypted=frozenset(shuffled[split:][:rng.randint(0, 7)]),
    )


class TestMaskChecksMatchFrozensets:
    """Definition 4.1 over masks ≡ over frozensets, on random inputs."""

    def test_relation_authorized_equivalence(self):
        rng = random.Random(20170917)
        universe = AttributeUniverse()
        for _ in range(500):
            profile = random_profile(rng)
            view = random_view(rng)
            expected = check_relation(view, profile).authorized
            actual = relation_authorized(
                view.masks(universe), profile.masks(universe))
            assert actual == expected, (view, profile)

    def test_mask_round_trip(self):
        rng = random.Random(7)
        universe = AttributeUniverse()
        for _ in range(200):
            profile = random_profile(rng)
            assert profile.masks(universe).to_profile() == profile

    def test_universe_interning_is_stable(self):
        universe = AttributeUniverse()
        early = universe.mask(["A", "B"])
        universe.mask(["Z1", "Z2", "Z3"])  # grow the universe
        assert universe.mask(["A", "B"]) == early
        assert universe.names(early) == frozenset({"A", "B"})


class TestMaskAlgebraMatchesFrozensets:
    """The Figure 2 row the planner applies to masks ≡ on
    RelationProfile (the other rows exist on ``RelationProfile`` only)."""

    def test_unary_operations(self):
        """``decrypt``: identical results or identical errors."""
        rng = random.Random(42)
        universe = AttributeUniverse()
        for _ in range(300):
            profile = random_profile(rng)
            attrs = frozenset(rng.sample(POOL, rng.randint(0, 4)))
            masks = profile.masks(universe)
            try:
                expected = profile.decrypt(attrs)
            except ProfileError:
                with pytest.raises(ProfileError):
                    masks.decrypt(universe.mask(attrs))
                continue
            assert masks.decrypt(universe.mask(attrs)).to_profile() \
                == expected


class TestEdgeTableMatchesEdgeCost:
    """_EdgeTable.cost ≡ the reference edge_cost, pair by pair."""

    def build_searcher(self, example, edge_cache=None):
        from repro.core.candidates import compute_candidates
        from repro.core.requirements import (
            chosen_schemes,
            infer_plaintext_requirements,
        )
        from repro.cost.estimator import PlanEstimator

        prices = PriceList.from_subjects(example.subjects)
        requirements = infer_plaintext_requirements(example.plan)
        candidates = compute_candidates(
            example.plan, example.policy, example.subject_names,
            requirements)
        schemes = chosen_schemes(example.plan)
        return _AssignmentSearch(
            plan=example.plan, policy=example.policy,
            candidates=candidates, requirements=requirements,
            schemes=schemes, prices=prices,
            estimator=PlanEstimator(schemes),
            owners=dict(example.owners), user="U",
            edge_cache=edge_cache,
        ), candidates

    def test_every_pair_on_the_running_example(self, example):
        searcher, candidates = self.build_searcher(example)
        for mode in ("optimistic", "conservative"):
            searcher.edge_scheme_mode = mode
            for node in example.plan.operations():
                receivers = sorted(candidates[node])
                for child in node.children:
                    edge = searcher.edge_table(child, node)
                    senders = [searcher.owner_of(child)] if child.is_leaf \
                        else sorted(candidates[child])
                    for receiver in receivers:
                        for sender in senders:
                            assert edge.cost(sender, receiver) == \
                                pytest.approx(
                                    edge_cost(searcher, child, sender,
                                              node, receiver),
                                    rel=1e-12, abs=1e-18,
                                ), (mode, sender, receiver, node.label())

    def test_cached_table_never_serves_a_pre_revoke_receiver_row(
            self, example):
        """The identity check in ``_EdgeTable.receiver`` is the only
        guard between a cross-query table and a policy that moved: the
        same cached table, looked up after a revoke, must price the
        receiver under the *new* policy."""
        from repro.core.edgecost import EdgeTableCache

        edge_cache = EdgeTableCache()
        node, child = example.join, example.join.children[1]
        receiver = "Y"

        def lookup():
            # A fresh search per policy state, as ``assign`` makes one
            # per call; the table itself comes from the shared cache.
            searcher, _ = self.build_searcher(example, edge_cache)
            edge = searcher.edge_table(child, node)
            return searcher, edge, edge.receiver(receiver)

        searcher, table, before = lookup()
        sender = searcher.owner_of(child)
        assert lookup()[2] is before  # policy unchanged: the row is kept

        rule = example.policy.revoke("Ins", receiver)
        assert rule is not None
        searcher, same_table, after = lookup()
        assert same_table is table  # a cache hit, not a rebuilt table
        assert after is not before and after.identity != before.identity
        assert same_table.cost(sender, receiver) == pytest.approx(
            edge_cost(searcher, child, sender, node, receiver),
            rel=1e-12, abs=1e-18)

        # Re-granting restores the masks; the row is rebuilt again and
        # prices exactly what it priced before the revoke.
        example.policy.grant(rule)
        searcher, _, restored = lookup()
        assert restored.identity == before.identity
        assert restored.total_enc_seconds == before.total_enc_seconds
        assert restored.dec_base_seconds == before.dec_base_seconds
        assert edge_cache.info()["hits"] == 3
        assert edge_cache.info()["misses"] == 1


def assign_reference(*args, **kwargs):
    """``assign`` with the oracle DP bound in as the search's DP."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_AssignmentSearch, "dynamic_programming",
                      dp_reference)
        return assign(*args, **kwargs)


class TestFastDpMatchesReference:
    """The decomposed DP ≡ the per-pair oracle DP (cost-identical)."""

    TOLERANCE = 1e-3

    def assert_equivalent(self, plan_builder, policy, subjects, prices,
                          user, owners=None):
        fast = assign(plan_builder(), policy, subjects, prices, user=user,
                      owners=owners)
        reference = assign_reference(plan_builder(), policy, subjects,
                                     prices, user=user, owners=owners)
        drift = abs(fast.cost.total_usd - reference.cost.total_usd) \
            / max(reference.cost.total_usd, 1e-18)
        assert drift <= self.TOLERANCE, (
            f"fast={fast.cost.total_usd} reference="
            f"{reference.cost.total_usd}"
        )

    def test_running_example(self, example):
        prices = PriceList.from_subjects(example.subjects)
        fast = assign(example.plan, example.policy, example.subject_names,
                      prices, user="U", owners=example.owners)
        reference = assign_reference(
            example.plan, example.policy, example.subject_names, prices,
            user="U", owners=example.owners)
        assert fast.cost.total_usd == pytest.approx(
            reference.cost.total_usd, rel=self.TOLERANCE)
        # On the running example the choice itself must agree, too.
        fast_choice = {n.label(): s for n, s in fast.assignment.items()}
        ref_choice = {n.label(): s for n, s in reference.assignment.items()}
        assert fast_choice == ref_choice

    @pytest.mark.parametrize("scenario_name", ["UAPenc", "UAPmix"])
    @pytest.mark.parametrize("query_number", [3, 5, 18])
    def test_tpch_ablation_queries(self, scenario_name, query_number):
        from repro.tpch.queries import query_plan
        from repro.tpch.scenarios import scenario
        from repro.tpch.schema import build_tpch_schema

        schema = build_tpch_schema()
        bundle = scenario(scenario_name, schema)
        prices = PriceList.from_subjects(bundle.subjects)
        self.assert_equivalent(
            lambda: query_plan(query_number, schema), bundle.policy,
            bundle.subject_names, prices, user=bundle.user,
            owners=bundle.owners,
        )

    def test_random_scenarios(self, random_scenario):
        scenario = random_scenario
        prices = PriceList.paper_defaults(
            providers=["S1", "S2", "S3"], authorities=[], user="U")
        try:
            fast = assign(scenario.plan, scenario.policy,
                          scenario.subjects, prices, user="U")
        except (NoCandidateError, ReproError):
            pytest.skip("unassignable scenario")
        reference = assign_reference(scenario.plan, scenario.policy,
                                     scenario.subjects, prices, user="U")
        assert fast.cost.total_usd == pytest.approx(
            reference.cost.total_usd, rel=self.TOLERANCE)
