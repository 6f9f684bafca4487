"""Property tests for the planner's bitset kernel and memoized DP.

Two equivalence obligations from ISSUE 2:

* the mask-backed profile algebra and Definition 4.1/4.2 checks of
  :mod:`repro.core.attrsets` agree with the frozenset semantics of
  :mod:`repro.core.profile` and the literal oracle
  (``tests/oracles/authorization_literal.py``) on random profiles and
  views;
* the decomposed, memoized DP picks cost-identical assignments to the
  per-pair reference implementation (``tests/oracles/dp_reference.py``)
  on the running example, the TPC-H ablation queries (Q3/Q5/Q18), all
  22 queries over a 24-provider federation, and the random scenarios;
  it scores only the senders that can win (:class:`_Senders`) and
  picks what the full scan picks.

And a golden gate: the 88 ``plan_sweep`` cells (22 queries under UA,
UAPenc, UAPmix and UAPmix over 24 providers) keep the chosen assignment,
the standbys and the exact cost recorded in ``planner_cells.json``.
"""

import dataclasses
import json
import math
import random
from pathlib import Path
from types import SimpleNamespace

import hypothesis
import pytest
from hypothesis import given, strategies as st

from repro.core import edgecost
from repro.core.assignment import _AssignmentSearch, assign
from repro.core.attrsets import (
    AttributeUniverse,
    relation_authorized,
    relation_violations,
)
from repro.core.authorization import (
    Authorization,
    Subject,
    SubjectKind,
    SubjectView,
)
from repro.core.candidates import compute_candidates
from repro.core.equivalence import EquivalenceClasses
from repro.core.plan import QueryPlan
from repro.core.profile import RelationProfile
from repro.core.requirements import chosen_schemes
from repro.cost.estimator import PlanEstimator
from repro.cost.pricing import PriceList, ResourceRates
from repro.exceptions import (
    NoCandidateError,
    ProfileError,
    ReproError,
)
from repro.paper_example import build_running_example
from repro.tpch import all_queries, all_scenarios, build_tpch_schema, scenario
from repro.tpch.queries import query_plan

from oracles.authorization_literal import check_relation
from oracles.dp_reference import dp_reference, edge_cost
from helpers import draws

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
            expected = check_relation(view, profile)
            masks = view.masks(universe), profile.masks(universe)
            assert relation_authorized(*masks) == expected.authorized, \
                (view, profile)
            assert sorted(relation_violations(*masks)) \
                == sorted(expected.violations), (view, profile)

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
        from repro.core.requirements import chosen_schemes
        from repro.cost.estimator import PlanEstimator

        prices = PriceList.from_subjects(example.subjects)
        candidates = compute_candidates(
            example.plan, example.policy, example.subject_names)
        schemes = chosen_schemes(example.plan)
        return _AssignmentSearch(
            plan=example.plan, policy=example.policy,
            candidates=candidates,
            requirements=candidates.min_views.requirements,
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

    def test_all_queries_over_24_providers(self):
        """Same assignment per node as the oracle, where most senders of
        an edge are dominated and only the frontier is scored: every
        fifth query in tier-1 (Q1, Q6, Q11, Q16, Q21), all 22 under the
        soak switch.  The golden gate plans all 22 in tier-1."""
        schema, settings = sweep_settings()
        wide = settings["wide"]
        prices = PriceList.from_subjects(wide.subjects)
        for query in all_queries()[::draws(1, 5)]:
            plan = query.plan(schema)
            fast, reference = (
                run(plan, wide.policy, wide.subject_names, prices,
                    user=wide.user, owners=wide.owners)
                for run in (assign, assign_reference))
            assert [fast.assignment[n] for n in plan.operations()] == \
                [reference.assignment[n] for n in plan.operations()], \
                query.number

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


def sweep_settings():
    """The federations of the 88 planner cells, at the Fig. 9/10
    estimate scale: the three §7 scenarios, plus UAPmix with P1's rules
    copied onto P4..P24 (24 providers)."""
    schema = build_tpch_schema(0.1)
    settings = dict(all_scenarios(schema))
    wide = scenario("UAPmix", schema)
    extra = tuple(Subject(f"P{i}", SubjectKind.PROVIDER)
                  for i in range(4, 25))
    template = [rule for rule in wide.policy.rules() if rule.subject == "P1"]
    for subject in extra:
        for rule in template:
            wide.policy.grant(Authorization(
                schema.relation(rule.relation), rule.plaintext,
                rule.encrypted, subject))
    settings["wide"] = dataclasses.replace(
        wide, name="wide", subjects=wide.subjects + extra)
    return schema, settings


def first_strict_minimum(rows, subject, entry, edge):
    """The DP's inner scan: (cost, sender) of the first strict minimum."""
    best = None
    for sender, cost, mask, cpu, net in rows:
        parts = entry.memo[mask]
        cost += cpu * (entry.total_enc_seconds - parts[0])
        if sender != subject:
            cost += (edge.base_bytes + entry.vol_needs_bytes + parts[1]) * net
        cost += entry.cpu_rate * (entry.dec_base_seconds + parts[2])
        if best is None or cost < best[0]:
            best = (cost, sender)
    return best


def receiver_part(parts, base_bytes=10.0):
    """A receiver entry and its edge, ``parts`` memoised per mask."""
    entry = SimpleNamespace(memo=dict(parts), total_enc_seconds=1.0,
                            vol_needs_bytes=0.0, cpu_rate=1.0,
                            dec_base_seconds=0.0)
    edge = SimpleNamespace(base_bytes=base_bytes,
                           memo_parts=lambda entry, mask: entry.memo[mask])
    edge.monotone = lambda entry, mask: edgecost._EdgeTable.monotone(
        edge, entry, mask)
    return entry, edge


class TestSenderFrontier:
    """Only the senders that can win are scored, and the scan over them
    picks what the scan over every sender picks."""

    # (name, cost so far, visible encrypted mask, cpu $/s, net $/byte)
    ROWS = [("a", 1.0, 1, 1.0, 1.0),
            ("b", 1.0, 1, 2.0, 1.0),  # ≥ a on all three: dropped
            ("c", 0.5, 1, 3.0, 3.0),  # cheaper so far: kept
            ("d", 1.0, 1, 1.0, 1.0),  # equal to a: the earlier row stays
            ("e", 9.0, 2, 9.0, 9.0)]  # the only row of its mask
    SAFE = {1: (0.0, 0.0, 0.0), 2: (0.0, 0.0, 0.0)}

    @staticmethod
    def names(rows):
        return [row[0] for row in rows]

    def test_weak_dominance_within_one_mask(self):
        senders = edgecost._Senders(self.ROWS)
        assert self.names(senders.kept) == ["a", "c", "e"]
        entry, edge = receiver_part(self.SAFE)
        assert senders.for_receiver("x", entry, edge) is senders.kept
        assert senders.for_receiver("c", entry, edge) is senders.kept

    def test_a_dominated_receiver_still_scores_itself(self):
        senders = edgecost._Senders(self.ROWS)
        entry, edge = receiver_part(self.SAFE)
        own = senders.for_receiver("b", entry, edge)
        assert self.names(own) == ["a", "b", "c", "e"]  # in table order
        assert self.names(senders.for_receiver("d", entry, edge)) == \
            ["a", "c", "d", "e"]
        # b pays no transfer to itself: 1 + 2·1 beats a's 1 + 1·1 + 10·1.
        assert first_strict_minimum(own, "b", entry, edge) == (3.0, "b")

    @pytest.mark.parametrize("negative", ["A", "B"])
    def test_a_negative_coefficient_scans_its_whole_mask(self, negative):
        parts = (1.0 + math.ulp(1.0), 0.0, 0.0) if negative == "A" \
            else (0.0, -11.0, 0.0)
        entry, edge = receiver_part({**self.SAFE, 1: parts})
        senders = edgecost._Senders(self.ROWS)
        assert self.names(senders.for_receiver("x", entry, edge)) == \
            ["a", "b", "c", "d", "e"]
        entry, edge = receiver_part({**self.SAFE, 2: parts})
        assert senders.for_receiver("x", entry, edge) is senders.kept

    def test_a_of_minus_one_ulp_makes_the_dominated_sender_win(self):
        """A = −ulp turns a dearer cpu rate into a cheaper pair."""
        rows = [("a", 0.0, 1, 1.0, 0.0), ("b", 0.0, 1, 2.0, 0.0)]
        entry, edge = receiver_part({1: (1.0 + math.ulp(1.0), 0.0, 0.0)})
        senders = edgecost._Senders(rows)
        assert self.names(senders.kept) == ["a"]
        scored = senders.for_receiver("x", entry, edge)
        assert first_strict_minimum(scored, "x", entry, edge)[1] == "b"
        assert first_strict_minimum(scored, "x", entry, edge) == \
            first_strict_minimum(rows, "x", entry, edge)

    def test_the_frontier_picks_what_the_full_scan_picks(self):
        rng = random.Random(27)
        ulp = math.ulp(1.0)
        for _ in range(2000):
            rows = [(f"s{i}", rng.choice((0.0, 0.1, 0.2, 0.3, 0.1 + 0.2)),
                     rng.choice((1, 2)), rng.choice((1.0, 2.0, 3.0)),
                     rng.choice((0.0, 1.0, 2.0)))
                    for i in range(rng.randint(1, 8))]
            parts = {mask: (rng.choice((0.0, 0.5, 1.0, 1.0 + ulp)),
                            rng.choice((0.0, 1.0)), rng.choice((0.0, 0.25)))
                     for mask in (1, 2)}
            entry, edge = receiver_part(parts, rng.choice((0.0, 0.1)))
            senders = edgecost._Senders(rows)
            for subject in self.names(rows) + ["outsider"]:
                assert first_strict_minimum(
                    senders.for_receiver(subject, entry, edge), subject,
                    entry, edge) == first_strict_minimum(
                        rows, subject, entry, edge), (rows, parts, subject)


#: Names a twin may take: before, between and after P1–P3 and X–Z.
TWIN_NAMES = ["A0", "M", "P0", "P15", "P9", "W", "X2", "Zz"]


def base_federation(base, number=None):
    """The setting, plan and user of a federation's base: the running
    example, or TPC-H query ``number`` under ``base`` (estimate scale)."""
    if base == "example":
        setting = build_running_example()
        return setting, setting.plan, "U"
    schema = build_tpch_schema(0.1)
    setting = scenario(base, schema)
    return setting, query_plan(number, schema), setting.user


def with_twins(setting, plan, user, twins):
    """``setting`` plus ``twins``, each (name, template provider, index
    of the changed rate — cpu, io, net — or None, its factor): the
    template's rules under the name, at the template's rates with the
    one rate scaled.  Returns (plan, policy, names, prices, user,
    owners)."""
    prices = PriceList.from_subjects(setting.subjects)
    names = list(setting.subject_names)
    rules = list(setting.policy.rules())
    for name, template, changed, factor in twins:
        for rule in rules:
            if rule.subject == template:
                setting.policy.grant(Authorization(
                    rule.relation, rule.plaintext, rule.encrypted, name))
        rates = prices.rates(template)
        rates = [rates.cpu_usd_per_second, rates.io_usd_per_gb,
                 rates.net_usd_per_gb]
        if changed is not None:
            rates[changed] *= factor
        prices = prices.with_rates(name, ResourceRates(*rates))
        names.append(name)
    return plan, setting.policy, names, prices, user, dict(setting.owners)


@st.composite
def federations(draw):
    """A plan and a federation holding subjects of one view at several
    rates: a running-example or TPC-H base, plus twins of its providers
    (each with the template's rules, under a drawn name, with the
    template's rates or one of them — cpu, io or net — halved or
    doubled: equal rates, a cheaper twin that sorts after its template,
    one cheaper in a single rate only).  The first twin is always one
    cheaper in net only, at half its template's net rate, sorting after
    it: the twin a dominance test that ignored the net rate would drop
    whatever else is drawn.  Returns (plan, policy, names, prices, user,
    owners)."""
    base = draw(st.sampled_from(["example", "UAPenc", "UAPmix"]))
    number = None if base == "example" \
        else draw(st.sampled_from([3, 5, 10, 12, 18]))
    setting, plan, user = base_federation(base, number)
    providers = [s.name for s in setting.subjects
                 if s.kind is SubjectKind.PROVIDER]
    template = draw(st.sampled_from(providers))
    first = draw(st.sampled_from([name for name in TWIN_NAMES
                                  if name > template]))
    twins = [(first, template, 2, 0.5)]
    for name in draw(st.lists(st.sampled_from(
            [name for name in TWIN_NAMES if name != first]),
            max_size=2, unique=True)):
        template = draw(st.sampled_from(providers))
        changed = draw(st.sampled_from([None, 0, 1, 2]))
        factor = None if changed is None \
            else draw(st.sampled_from([0.5, 2.0]))
        twins.append((name, template, changed, factor))
    return with_twins(setting, plan, user, twins)


def negative_coefficient(size):
    """``_EdgeTable.memo_parts`` with A < 0 wherever the sender already
    holds encrypted every attribute the receiver needs encrypted: A
    comes out −1 ulp (``"ulp"``, what summing the two sides in
    different orders gives) or −total (``"large"``, so a dearer cpu
    rate visibly buys a cheaper pair)."""
    raw = edgecost._EdgeTable.memo_parts

    def memo_parts(self, entry, mask):
        enc, vol, dec = raw(self, entry, mask)
        if enc > 0.0 and enc == entry.total_enc_seconds:
            enc = math.nextafter(enc, math.inf) if size == "ulp" else 2 * enc
        entry.memo[mask] = parts = (enc, vol, dec)
        return parts
    return memo_parts


def outcome(run):
    try:
        return run()
    except NoCandidateError:
        return "no candidate"


def without_dominance(run):
    """``run()`` with the dominance map patched to empty."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_AssignmentSearch, "dominators", lambda self: {})
        return outcome(run)


class TestDominatedSubjects:
    """Skipping dominated subjects' rows changes no proposal and no
    exact cost: the search equals the same search with an empty
    dominance map, pass by pass and through ``assign``."""

    @given(federations(), st.sampled_from([None, "ulp", "large"]),
           st.data())
    @hypothesis.settings(max_examples=draws(60, 25), deadline=None)
    def test_the_search_equals_the_search_without_dominance(
            self, federation, perturb, data):
        self.check(federation, perturb,
                   lambda options: data.draw(st.sampled_from(options)))

    def test_a_twin_cheaper_in_net_only_keeps_its_row(self):
        """Pinned where the draws may miss it: Y's twin ``Zz`` sorts
        after Y, shares its view and its cpu and io rates, and ships at
        half Y's net rate.  Y does not dominate it, so its row stays."""
        federation = with_twins(*base_federation("example"),
                                [("Zz", "Y", 2, 0.5)])
        self.check(federation, None, min)

    def test_a_restriction_that_leaves_no_candidate_refuses_alike(self):
        """Pinned where the draws may miss it: restricted to provider X
        alone, some operation has no candidate, with the dominance skip
        (Y's twin at Y's rates is dominated) and without."""
        federation = with_twins(*base_federation("example"),
                                [("Zz", "Y", None, None)])
        self.check(federation, None, min, restrict_to=frozenset({"X"}))

    @staticmethod
    def check(federation, perturb, pick, restrict_to=None):
        """Every DP pass and ``assign`` over ``federation`` with and
        without the dominance map: the same proposal, refusal or cost.
        ``pick`` chooses, from its sorted options, the subject the last
        restriction leaves out (``restrict_to`` replaces it)."""
        plan, policy, names, prices, user, owners = federation
        with pytest.MonkeyPatch.context() as patch:
            if perturb is not None:
                patch.setattr(edgecost._EdgeTable, "memo_parts",
                              negative_coefficient(perturb))
            candidates = compute_candidates(plan, policy, names)
            schemes = chosen_schemes(plan)
            searcher = _AssignmentSearch(
                plan=plan, policy=policy, candidates=candidates,
                requirements=candidates.min_views.requirements,
                schemes=schemes, prices=prices,
                estimator=PlanEstimator(schemes), owners=owners, user=user)
            # Restrictions: none, the trusted subjects, and one without
            # a dominator (its dominated subjects keep their rows).
            dominated = searcher.dominators()
            excluded = pick(sorted(set(dominated.values())) or names)
            restrictions = [None, frozenset({user, *owners.values()}),
                            restrict_to or frozenset(names) - {excluded}]
            for mode in ("optimistic", "conservative"):
                searcher.edge_scheme_mode = mode
                for restriction in restrictions:
                    def search():
                        return searcher.dynamic_programming(restriction)
                    assert outcome(search) == without_dominance(search), (
                        mode, restriction, dominated)

            def planned():
                result = assign(plan, policy, names, prices, user=user,
                                owners=owners)
                return cell_record(result, plan)
            assert outcome(planned) == without_dominance(planned)


GOLDEN = Path(__file__).with_name("planner_cells.json")


def cell_record(result, plan):
    """One planned cell as post-order (label, assignee) pairs and the
    ``float.hex`` of its exact cost, for the winner and every standby."""
    def record(r):
        return {"cost": float.hex(r.cost.total_usd),
                "assignment": [[node.label(), r.assignment[node]]
                               for node in plan.operations()]}
    return {**record(result),
            "standbys": [record(standby) for standby in result.portfolio]}


def plan_sweep_cells():
    """Plan the 88 cells once, counting what the DP scores.

    Returns (cell name → record, counts, extended): ``every`` sender
    rows over the scored (receiver, edge) pairs, ``frontier`` the rows
    of each edge's frontier plus each dominated receiver's own row,
    ``scored`` the rows actually scanned, ``receivers`` the (receiver,
    edge) pairs; ``extended`` is (cell name, extended plan) of every
    cell's winner and standbys.
    """
    counts = dict.fromkeys(("every", "frontier", "scored", "receivers"), 0)
    for_receiver = edgecost._Senders.for_receiver

    def counting(self, subject, entry, edge):
        rows = for_receiver(self, subject, entry, edge)
        counts["scored"] += len(rows)
        counts["every"] += len(self.rows)
        counts["frontier"] += len(self.kept) + any(
            subject in dropped for dropped in self.dropped.values())
        counts["receivers"] += 1
        return rows

    cells = {}
    extended = []
    schema, settings = sweep_settings()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(edgecost._Senders, "for_receiver", counting)
        for query in all_queries():
            for name, setting in settings.items():
                plan = query.plan(schema)
                result = assign(plan, setting.policy, setting.subject_names,
                                PriceList.from_subjects(setting.subjects),
                                user=setting.user, owners=setting.owners)
                cells[f"Q{query.number}/{name}"] = cell_record(result, plan)
                extended += ((f"Q{query.number}/{name}", r.extended.plan)
                             for r in (result, *result.portfolio))
    return cells, counts, extended


@pytest.fixture(scope="module")
def planned_sweep():
    return plan_sweep_cells()


def test_the_88_planner_cells_keep_their_plans(planned_sweep):
    """Golden gate: every cell's chosen assignment, standbys and exact
    cost (``float.hex``) are those in ``planner_cells.json``.  A change
    that moves a plan on purpose rewrites the file by running this
    module as a script (``PYTHONPATH=src:tests python
    tests/properties/test_planner_kernel.py``) and says why."""
    cells, _counts, _extended = planned_sweep
    golden = json.loads(GOLDEN.read_text())
    assert len(cells) == 88
    assert sorted(cells) == sorted(golden)
    moved = [name for name in golden if cells[name] != golden[name]]
    assert not moved, moved


def test_pairs_scored_over_the_88_planner_cells(planned_sweep):
    """(sender, receiver) pairs the DP scores over all 22 queries under
    UA, UAPenc, UAPmix and the 24-provider UAPmix, under any string
    hash.  A dominated subject gets no row (``dominators``): 4,946
    (receiver, edge) pairs are scored where every subject's row took
    16,428, and 8,624 sender rows are in their scans where 206,292
    were.  The frontier (``_Senders``) keeps 7,550 of them, and that
    is exactly what is scored: an edge table sums a sender's overlap in
    the order it sums the receiver's total, so no coefficient comes out
    −1 ulp and the negative-coefficient fallback adds no row."""
    _cells, counts, _extended = planned_sweep
    assert counts == {"every": 8_624, "frontier": 7_550, "scored": 7_550,
                      "receivers": 4_946}


def test_the_extension_hands_over_the_profiles_it_derived(planned_sweep):
    """``minimally_extend`` derives every node's Figure 2 profile as it
    builds the extended plan and hands the map to it, so
    ``verify_assignment`` does not derive it again.  Over every winner
    and standby of the 88 cells (source encryptions, harmonising
    Encrypt / Decrypt and the user's final Decrypt included) the map
    handed over is exactly the one ``profiles()`` computes afresh."""
    _cells, _counts, extended = planned_sweep
    assert len({name for name, _ in extended}) == 88
    for name, plan in extended:
        handed = plan.profiles()
        fresh = QueryPlan(plan.root, plan.columns).profiles()
        assert handed is not fresh
        assert handed == fresh, name


if __name__ == "__main__":
    cells, counts, _extended = plan_sweep_cells()
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(cell, ensure_ascii=False)}"
        for name, cell in cells.items()) + "\n}\n")
    print(f"wrote {len(cells)} cells to {GOLDEN}; {counts}")
