"""Cost-based assignment pipeline (§6–§7)."""

import dataclasses

import pytest

from repro.core.assignment import _AssignmentSearch, assign
from repro.core.authorization import Authorization, Policy
from repro.core.candidates import compute_candidates
from repro.core.extension import minimally_extend
from repro.core.lineage import augment_view, derived_lineage
from repro.core.operators import (
    Aggregate,
    AggregateFunction,
    BaseRelationNode,
    GroupBy,
)
from repro.core.plan import QueryPlan
from repro.core.requirements import chosen_schemes
from repro.core.schema import Relation, Schema
from repro.core.visibility import verify_assignment
from repro.cost.estimator import PlanEstimator
from repro.cost.pricing import PriceList
from repro.exceptions import NoCandidateError, UnauthorizedError

from oracles.exhaustive_search import exact_cost, exhaustive_search


@pytest.fixture()
def prices(example):
    return PriceList.from_subjects(example.subjects)


def search_exhaustively(example, prices, **options):
    return exhaustive_search(example.plan, example.policy,
                             example.subject_names, prices, user="U",
                             owners=example.owners, **options)


def assign_example(example, prices):
    return assign(example.plan, example.policy, example.subject_names,
                  prices, user="U", owners=example.owners)


class CountingExtend:
    """``minimally_extend``, remembering the assignment of every call."""

    def __init__(self):
        self.assignments = []

    def __call__(self, plan, policy, assignment, **options):
        self.assignments.append(dict(assignment))
        return minimally_extend(plan, policy, assignment, **options)


class TestAssign:
    def test_dp_matches_exhaustive(self, example, prices):
        dp = assign_example(example, prices)
        optimum, _ = search_exhaustively(example, prices)
        assert dp.cost.total_usd <= 1.02 * exact_cost(
            example.plan, example.policy, optimum, prices, user="U",
            owners=example.owners)

    def test_result_is_verified_authorized(self, example, prices):
        outcome = assign_example(example, prices)
        assert verify_assignment(
            outcome.extended.plan, example.policy,
            outcome.extended.assignment)

    def test_assignment_within_candidates(self, example, prices):
        outcome = assign_example(example, prices)
        for node, subject in outcome.assignment.items():
            assert subject in outcome.candidates[node]

    def test_unauthorized_user_rejected(self, example, prices):
        with pytest.raises(UnauthorizedError):
            assign(example.plan, example.policy, example.subject_names,
                   prices, user="Z", owners=example.owners)

    def test_no_candidates_raises(self, prices):
        schema = Schema()
        relation = schema.add(Relation("R", ["g", "x"]))
        policy = Policy(schema)
        policy.grant(Authorization(relation, ["g", "x"], (), "U"))
        plan = QueryPlan(GroupBy(
            BaseRelationNode(relation), ["g"],
            Aggregate(AggregateFunction.SUM, "x"),
        ))
        with pytest.raises(NoCandidateError):
            # Subject universe excludes U entirely.
            assign(plan, policy, ["Z"], prices, user="U")

    def test_expensive_provider_avoided(self, example, prices):
        # Pricing X off the market removes it from the chosen assignment.
        from repro.cost.pricing import ResourceRates

        expensive = prices.with_rates(
            "X", ResourceRates(cpu_usd_per_second=1e3))
        costly = assign_example(example, expensive)
        assert not any(s == "X" for s in costly.assignment.values())

    def test_assignee_lookup(self, example, prices):
        outcome = assign_example(example, prices)
        assert outcome.assignee(example.having) in \
            outcome.candidates[example.having]

    def test_describe_contains_cost(self, example, prices):
        outcome = assign_example(example, prices)
        assert "total=$" in outcome.describe()


def with_twin(example, prices, template, name, **factors):
    """``template``'s rules granted to ``name`` as well, at its rates
    with each rate named in ``factors`` multiplied: (names, prices)."""
    for rule in list(example.policy.rules()):
        if rule.subject == template:
            example.policy.grant(Authorization(
                rule.relation, rule.plaintext, rule.encrypted, name))
    rates = prices.rates(template)
    rates = dataclasses.replace(rates, **{
        field: getattr(rates, field) * factor
        for field, factor in factors.items()})
    return [*example.subject_names, name], prices.with_rates(name, rates)


def searcher(example, names, prices):
    candidates = compute_candidates(example.plan, example.policy, names)
    schemes = chosen_schemes(example.plan)
    return _AssignmentSearch(
        plan=example.plan, policy=example.policy, candidates=candidates,
        requirements=candidates.min_views.requirements, schemes=schemes,
        prices=prices, estimator=PlanEstimator(schemes),
        owners=dict(example.owners), user="U")


def dominators(example, names, prices):
    return searcher(example, names, prices).dominators()


def chosen(example, names, prices):
    outcome = assign(example.plan, example.policy, names, prices,
                     user="U", owners=example.owners)
    return [outcome.assignment[node] for node in example.plan.operations()]


class TestDominatedSubjects:
    """A subject of the same view as an earlier-sorted one whose every
    rate is ≤ its own gets no DP row; Y runs two of the running
    example's operations, so a twin of Y shows who keeps them."""

    def test_a_twin_at_equal_rates_sorting_after_is_skipped(
            self, example, prices):
        before = chosen(example, example.subject_names, prices)
        names, twin_prices = with_twin(example, prices, "Y", "Y2")
        assert dominators(example, names, twin_prices) == {"Y2": "Y"}
        assert chosen(example, names, twin_prices) == before

    def test_the_earlier_twin_at_equal_rates_takes_the_nodes(
            self, example, prices):
        before = chosen(example, example.subject_names, prices)
        names, twin_prices = with_twin(example, prices, "Y", "W")
        assert dominators(example, names, twin_prices) == {"Y": "W"}
        assert chosen(example, names, twin_prices) == [
            "W" if subject == "Y" else subject for subject in before]

    def test_a_cheaper_twin_sorting_after_dominates_nothing(
            self, example, prices):
        before = chosen(example, example.subject_names, prices)
        names, twin_prices = with_twin(example, prices, "Y", "Y2",
                                       cpu_usd_per_second=0.5)
        assert dominators(example, names, twin_prices) == {}
        assert chosen(example, names, twin_prices) == [
            "Y2" if subject == "Y" else subject for subject in before]

    @pytest.mark.parametrize("rate", ["io_usd_per_gb", "net_usd_per_gb"])
    def test_every_rate_is_compared(self, example, prices, rate):
        """Y2 ships (or reads) cheaper than Y at Y's cpu rate: Y does
        not dominate it, and where the plan ships, Y2 wins."""
        before = chosen(example, example.subject_names, prices)
        names, twin_prices = with_twin(example, prices, "Y", "Y2",
                                       **{rate: 0.5})
        assert dominators(example, names, twin_prices) == {}
        if rate == "net_usd_per_gb":
            assert chosen(example, names, twin_prices) == [
                "Y2" if subject == "Y" else subject for subject in before]

    def test_an_owner_is_never_dominated(self, example, prices):
        names, twin_prices = with_twin(example, prices, "H", "A",
                                       cpu_usd_per_second=0.5)
        assert dominators(example, names, twin_prices) == {}
        names, twin_prices = with_twin(example, prices, "H", "H2")
        assert dominators(example, names, twin_prices) == {"H2": "H"}

    def test_a_pass_over_the_user_and_the_owners_groups_nobody(
            self, example, prices, monkeypatch):
        """Neither the user nor an owner is ever dominated, so the
        portfolio's trusted pass skips the grouping; a restriction that
        leaves an operation no candidate names it."""
        names, twin_prices = with_twin(example, prices, "Y", "Y2")
        search = searcher(example, names, twin_prices)
        grouped = []
        monkeypatch.setattr(_AssignmentSearch, "dominators",
                            lambda self: grouped.append(self) or {})
        trusted = frozenset({"U", *example.owners.values()})
        assert set(search.dynamic_programming(trusted).values()) <= trusted
        assert grouped == []
        search.dynamic_programming(trusted | {"Y2"})
        assert grouped == [search]
        with pytest.raises(NoCandidateError,
                           match="restriction leaves no candidate"):
            search.dynamic_programming(frozenset({"Z2"}))


class TestPortfolioExtendsEachDistinctProposalOnce:
    """Three DP passes, but the exact pipeline (extension → schemes →
    keys → cost) runs once per *distinct* proposal — and the winner, its
    cost and the standbys are what extending all three would give."""

    @staticmethod
    def cell(scenario_name, query_number):
        from repro.tpch.queries import query_plan
        from repro.tpch.scenarios import scenario
        from repro.tpch.schema import build_tpch_schema

        schema = build_tpch_schema()
        bundle = scenario(scenario_name, schema)
        prices = PriceList.from_subjects(bundle.subjects)
        return (lambda: assign(
            query_plan(query_number, schema), bundle.policy,
            bundle.subject_names, prices, user=bundle.user,
            owners=bundle.owners))

    @staticmethod
    def proposals_of(run, monkeypatch):
        """(result, the assignment of every ``minimally_extend`` call)."""
        import repro.core.assignment as assignment_module

        counting = CountingExtend()
        monkeypatch.setattr(assignment_module, "minimally_extend", counting)
        return run(), counting.assignments

    @staticmethod
    def extend_all_three(run):
        """``run()`` with the dedup defeated: every pass is extended."""
        from repro.core.search import _AssignmentSearch

        class Proposal(dict):
            """Equal only to itself, so no pass repeats another."""
            __eq__ = object.__eq__
            __hash__ = None

        search = _AssignmentSearch.dynamic_programming

        def never_equal(self, restrict_to=None):
            return Proposal(search(self, restrict_to=restrict_to))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_AssignmentSearch, "dynamic_programming",
                          never_equal)
            return run()

    @staticmethod
    def names(result):
        return {node.label(): s for node, s in result.assignment.items()}

    def test_one_distinct_proposal_is_extended_once(self, monkeypatch):
        # Under UA nobody needs encryption, the three passes agree.
        result, extended = self.proposals_of(self.cell("UA", 3),
                                             monkeypatch)
        assert len(extended) == 1
        assert result.portfolio == ()

    def test_three_distinct_proposals_are_extended_three_times(
            self, monkeypatch):
        result, extended = self.proposals_of(self.cell("UAPenc", 3),
                                             monkeypatch)
        assert len(extended) == 3
        assert len(result.portfolio) == 2

    @pytest.mark.parametrize("scenario_name, query_number", [
        ("UA", 3), ("UAPenc", 1), ("UAPenc", 3), ("UAPenc", 21),
        ("UAPmix", 5),
    ])
    def test_same_winner_and_standbys_as_extending_every_pass(
            self, scenario_name, query_number):
        run = self.cell(scenario_name, query_number)
        deduplicated, every_pass = run(), self.extend_all_three(run)
        assert len(every_pass.portfolio) == 2
        assert self.names(deduplicated) == self.names(every_pass)
        assert deduplicated.cost.total_usd == every_pass.cost.total_usd
        # Extending all three repeats some proposals; the standbys are
        # the distinct losers, cheapest first, first occurrence kept.
        distinct = []
        for standby in every_pass.portfolio:
            if self.names(standby) != self.names(every_pass) \
                    and self.names(standby) not in map(self.names, distinct):
                distinct.append(standby)
        assert [self.names(s) for s in deduplicated.portfolio] \
            == [self.names(s) for s in distinct]
        assert [s.cost.total_usd for s in deduplicated.portfolio] \
            == [s.cost.total_usd for s in distinct]


class TestExhaustive:
    """The oracle's own accounting (``tests/oracles/exhaustive_search``)."""

    def test_stats_account_for_every_combination(self, example, prices):
        _, stats = search_exhaustively(example, prices)
        assert stats["combinations"] > 0
        # Every combination is evaluated, pruned, or skipped-unauthorized.
        assert (stats["evaluated"] + stats["pruned"]
                + stats["skipped_unauthorized"]) == stats["combinations"]

    def test_pruning_preserves_the_optimum(self, example, prices):
        # Pruned ≡ unpruned: the lower bound may only skip combinations
        # that cannot win — and the DP portfolio approximates that same
        # minimum from above.
        pruned, _ = search_exhaustively(example, prices)
        unpruned, stats = search_exhaustively(example, prices, prune=False)
        assert stats["pruned"] == 0
        assert stats["evaluated"] == stats["combinations"]
        assert pruned == unpruned
        optimum = exact_cost(example.plan, example.policy, pruned, prices,
                             user="U", owners=example.owners)
        dp = assign_example(example, prices)
        assert optimum <= dp.cost.total_usd * 1.0001

    def test_pruning_actually_prunes(self, example, prices):
        # With user-rate 10× and authority-rate 3× subjects in the
        # domains, the CPU lower bound must cut at least some subtrees.
        _, stats = search_exhaustively(example, prices)
        assert stats["pruned"] > 0

    def test_candidate_combinations_never_skip(self, example, prices):
        # Theorem 5.2(ii): every λ ∈ Λ extends successfully, so the
        # unauthorized-skip counter stays zero for in-Λ enumeration.
        _, stats = search_exhaustively(example, prices, prune=False)
        assert stats["skipped_unauthorized"] == 0

    def test_unauthorized_skips_are_counted_and_reported(
            self, example, prices, monkeypatch):
        # Force every extension to fail: the search must count each
        # combination as skipped (not silently drop it) and report the
        # tally in the error.
        import re

        import oracles.exhaustive_search as oracle_module

        def always_unauthorized(*args, **kwargs):
            raise UnauthorizedError("forced by the test")

        monkeypatch.setattr(oracle_module, "minimally_extend",
                            always_unauthorized)
        with pytest.raises(NoCandidateError) as excinfo:
            search_exhaustively(example, prices)
        match = re.search(r"\((\d+) combinations skipped as unauthorized",
                          str(excinfo.value))
        assert match is not None
        assert int(match.group(1)) > 0


class TestLineage:
    def test_derived_lineage_of_aliases(self):
        schema = Schema()
        relation = schema.add(Relation("R", ["g", "x"]))
        plan = QueryPlan(GroupBy(BaseRelationNode(relation), ["g"], [
            Aggregate(AggregateFunction.SUM, "x", alias="total"),
            Aggregate(AggregateFunction.COUNT, alias="n"),
        ]))
        lineage = derived_lineage(plan)
        assert lineage == {"total": "x", "n": None}

    def test_augment_view_follows_sources(self):
        from repro.core.authorization import SubjectView

        view = SubjectView("s", frozenset({"x"}), frozenset({"y"}))
        augmented = augment_view(view, {
            "total": "x", "sum_y": "y", "n": None,
        })
        assert "total" in augmented.plaintext
        assert "sum_y" in augmented.encrypted
        assert "n" in augmented.plaintext  # counts are unrestricted

    def test_transitive_lineage(self):
        from repro.core.authorization import SubjectView

        view = SubjectView("s", frozenset({"x"}), frozenset())
        augmented = augment_view(
            view, {"level2": "level1", "level1": "x"})
        # derived_lineage resolves chains before augmenting; simulate it.
        lineage = {"level1": "x", "level2": "level1"}
        from repro.core.lineage import derived_lineage as _  # noqa: F401
        resolved = augment_view(view, {
            name: ("x" if source in ("x", "level1") else source)
            for name, source in lineage.items()
        })
        assert "level1" in augmented.plaintext or \
            "level1" in resolved.plaintext
