"""Cost-based assignment pipeline (§6–§7)."""

import pytest

from repro.core.assignment import assign
from repro.core.authorization import Authorization, Policy
from repro.core.lineage import augment_view, derived_lineage
from repro.core.operators import (
    Aggregate,
    AggregateFunction,
    BaseRelationNode,
    GroupBy,
)
from repro.core.plan import QueryPlan
from repro.core.schema import Relation, Schema
from repro.core.visibility import verify_assignment
from repro.cost.pricing import PriceList
from repro.exceptions import NoCandidateError, UnauthorizedError


@pytest.fixture()
def prices(example):
    return PriceList.from_subjects(example.subjects)


class TestAssign:
    def test_dp_matches_exhaustive(self, example, prices):
        dp = assign(example.plan, example.policy, example.subject_names,
                    prices, user="U", owners=example.owners, strategy="dp")
        exhaustive = assign(example.plan, example.policy,
                            example.subject_names, prices, user="U",
                            owners=example.owners, strategy="exhaustive")
        assert dp.cost.total_usd <= exhaustive.cost.total_usd * 1.02

    def test_dp_beats_or_matches_greedy(self, example, prices):
        dp = assign(example.plan, example.policy, example.subject_names,
                    prices, user="U", owners=example.owners, strategy="dp")
        greedy = assign(example.plan, example.policy,
                        example.subject_names, prices, user="U",
                        owners=example.owners, strategy="greedy")
        assert dp.cost.total_usd <= greedy.cost.total_usd * 1.001

    def test_result_is_verified_authorized(self, example, prices):
        outcome = assign(example.plan, example.policy,
                         example.subject_names, prices, user="U",
                         owners=example.owners)
        assert verify_assignment(
            outcome.extended.plan, example.policy,
            outcome.extended.assignment)

    def test_assignment_within_candidates(self, example, prices):
        outcome = assign(example.plan, example.policy,
                         example.subject_names, prices, user="U",
                         owners=example.owners)
        for node, subject in outcome.assignment.items():
            assert subject in outcome.candidates[node]

    def test_unknown_strategy_rejected(self, example, prices):
        with pytest.raises(ValueError):
            assign(example.plan, example.policy, example.subject_names,
                   prices, user="U", strategy="quantum")

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
        costly = assign(example.plan, example.policy,
                        example.subject_names, expensive, user="U",
                        owners=example.owners)
        assert not any(s == "X" for s in costly.assignment.values())

    def test_assignee_lookup(self, example, prices):
        outcome = assign(example.plan, example.policy,
                         example.subject_names, prices, user="U",
                         owners=example.owners)
        assert outcome.assignee(example.having) in \
            outcome.candidates[example.having]

    def test_describe_contains_cost(self, example, prices):
        outcome = assign(example.plan, example.policy,
                         example.subject_names, prices, user="U",
                         owners=example.owners)
        assert "total=$" in outcome.describe()


class TestExhaustive:
    def test_stats_account_for_every_combination(self, example, prices):
        outcome = assign(example.plan, example.policy,
                         example.subject_names, prices, user="U",
                         owners=example.owners, strategy="exhaustive")
        stats = outcome.search_stats
        assert stats is not None
        assert stats["combinations"] > 0
        # Every combination is evaluated, pruned, or skipped-unauthorized.
        assert (stats["evaluated"] + stats["pruned"]
                + stats["skipped_unauthorized"]) == stats["combinations"]

    def test_pruning_preserves_the_optimum(self, example, prices):
        # The pruned search must still find the same minimum cost the DP
        # portfolio approximates from above.
        exhaustive = assign(example.plan, example.policy,
                            example.subject_names, prices, user="U",
                            owners=example.owners, strategy="exhaustive")
        dp = assign(example.plan, example.policy, example.subject_names,
                    prices, user="U", owners=example.owners, strategy="dp")
        assert exhaustive.cost.total_usd <= dp.cost.total_usd * 1.0001

    def test_pruning_actually_prunes(self, example, prices):
        # With user-rate 10× and authority-rate 3× subjects in the
        # domains, the CPU lower bound must cut at least some subtrees.
        outcome = assign(example.plan, example.policy,
                         example.subject_names, prices, user="U",
                         owners=example.owners, strategy="exhaustive")
        assert outcome.search_stats["pruned"] > 0

    def test_candidate_combinations_never_skip(self, example, prices):
        # Theorem 5.2(ii): every λ ∈ Λ extends successfully, so the
        # unauthorized-skip counter stays zero for in-Λ enumeration.
        outcome = assign(example.plan, example.policy,
                         example.subject_names, prices, user="U",
                         owners=example.owners, strategy="exhaustive")
        assert outcome.search_stats["skipped_unauthorized"] == 0

    def test_unauthorized_skips_are_counted_and_reported(
            self, example, prices, monkeypatch):
        # Force every extension to fail: the search must count each
        # combination as skipped (not silently drop it) and report the
        # tally in the error.
        import re

        import repro.core.assignment as assignment_module

        def always_unauthorized(*args, **kwargs):
            raise UnauthorizedError("forced by the test")

        monkeypatch.setattr(assignment_module, "minimally_extend",
                            always_unauthorized)
        with pytest.raises(NoCandidateError) as excinfo:
            assign(example.plan, example.policy, example.subject_names,
                   prices, user="U", owners=example.owners,
                   strategy="exhaustive")
        match = re.search(r"\((\d+) combinations skipped as unauthorized",
                          str(excinfo.value))
        assert match is not None
        assert int(match.group(1)) > 0

    def test_dp_results_have_no_stats(self, example, prices):
        outcome = assign(example.plan, example.policy,
                         example.subject_names, prices, user="U",
                         owners=example.owners)
        assert outcome.search_stats is None


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
