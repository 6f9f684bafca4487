"""Policy-versioned assignment cache, keyed by the plan object."""

import gc
import weakref

import pytest

from repro.core import assignment as assignment_module
from repro.core.assignment import assign
from repro.core.authorization import Authorization, Policy
from repro.core.plan import QueryPlan
from repro.core.plancache import AssignmentCache
from repro.core.schema import Relation, Schema
from repro.cost.pricing import PriceList
from repro.exceptions import AuthorizationError, UnauthorizedError


@pytest.fixture()
def prices(example):
    return PriceList.from_subjects(example.subjects)


class TestPolicyVersion:
    def test_grant_bumps_version(self):
        schema = Schema()
        relation = schema.add(Relation("R", ["a", "b"]))
        policy = Policy(schema)
        assert policy.version == 0
        policy.grant(Authorization(relation, ["a"], [], "U"))
        assert policy.version == 1
        policy.grant(Authorization(relation, [], ["b"], "P"))
        assert policy.version == 2

    def test_revoke_removes_rule_and_bumps_version(self):
        schema = Schema()
        relation = schema.add(Relation("R", ["a"]))
        policy = Policy(schema)
        policy.grant(Authorization(relation, ["a"], [], "U"))
        before = policy.version
        revoked = policy.revoke("R", "U")
        assert revoked.plaintext == frozenset({"a"})
        assert policy.version == before + 1
        assert policy.rule_for("R", "U") is None
        assert "U" not in policy.subjects()

    def test_revoke_missing_rule_is_noop(self):
        policy = Policy()
        before = policy.version
        assert policy.revoke("R", "U") is None
        assert policy.version == before
        assert policy.deltas_since(before) == ()

    def test_duplicate_grant_is_noop(self):
        schema = Schema()
        relation = schema.add(Relation("R", ["a"]))
        policy = Policy(schema)
        granted = policy.grant(Authorization(relation, ["a"], [], "U"))
        before = policy.version
        again = policy.grant(Authorization(relation, ["a"], [], "U"))
        assert again is granted
        assert policy.version == before
        assert policy.deltas_since(before) == ()

    def test_conflicting_grant_still_raises_without_bump(self):
        schema = Schema()
        relation = schema.add(Relation("R", ["a", "b"]))
        policy = Policy(schema)
        policy.grant(Authorization(relation, ["a"], [], "U"))
        before = policy.version
        with pytest.raises(AuthorizationError):
            policy.grant(Authorization(relation, ["b"], [], "U"))
        assert policy.version == before


class TestAssignmentCache:
    def test_repeated_query_hits(self, example, prices):
        cache = AssignmentCache()
        first = assign(example.plan, example.policy, example.subject_names,
                       prices, user="U", owners=example.owners, cache=cache)
        second = assign(example.plan, example.policy, example.subject_names,
                        prices, user="U", owners=example.owners, cache=cache)
        assert second is first
        info = cache.info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_structurally_equal_but_distinct_plan_misses(self, example,
                                                         prices):
        from repro.paper_example import build_running_example

        cache = AssignmentCache()
        first = assign(example.plan, example.policy, example.subject_names,
                       prices, user="U", owners=example.owners, cache=cache)
        other = build_running_example()
        # Same structure, same policy/prices objects, but another plan
        # object: the key is the plan itself, so it is planned afresh
        # and answers for its own nodes.
        second = assign(other.plan, example.policy, example.subject_names,
                        prices, user="U", owners=example.owners, cache=cache)
        info = cache.info()
        assert info["hits"] == 0 and info["misses"] == 2
        assert info["size"] == 2
        assert second is not first
        assert second.candidates.plan is other.plan
        assert second.cost.total_usd == first.cost.total_usd
        for node in other.plan.operations():
            assert second.assignee(node) in second.candidates[node]
        assert example.having not in second.assignment
        assert assign(other.plan, example.policy, example.subject_names,
                      prices, user="U", owners=example.owners,
                      cache=cache) is second

    def test_policy_change_invalidates(self, example, prices):
        cache = AssignmentCache()
        first = assign(example.plan, example.policy, example.subject_names,
                       prices, user="U", owners=example.owners, cache=cache)
        # Revoke + re-grant an unrelated-looking rule: the version moved,
        # so the cache must recompute.
        rule = example.policy.revoke("Ins", "Y")
        example.policy.grant(rule)
        second = assign(example.plan, example.policy, example.subject_names,
                        prices, user="U", owners=example.owners, cache=cache)
        assert second is not first
        assert second.cost.total_usd == pytest.approx(first.cost.total_usd)

    def test_different_prices_object_misses(self, example, prices):
        cache = AssignmentCache()
        first = assign(example.plan, example.policy, example.subject_names,
                       prices, user="U", owners=example.owners, cache=cache)
        other_prices = PriceList.from_subjects(example.subjects)
        second = assign(example.plan, example.policy,
                        example.subject_names, other_prices, user="U",
                        owners=example.owners, cache=cache)
        assert second is not first

    def test_lru_eviction(self):
        cache = AssignmentCache(maxsize=2)
        cache.put(("a",), (), 1)
        cache.put(("b",), (), 2)
        assert cache.get(("a",), ()) == 1  # refresh a
        cache.put(("c",), (), 3)  # evicts b
        assert cache.get(("b",), ()) is None
        assert cache.get(("a",), ()) == 1
        assert cache.get(("c",), ()) == 3

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            AssignmentCache(maxsize=0)


class TestKeyedByPlan:
    """The key is the plan object plus subjects, user and owners."""

    def run(self, example, prices, cache, **overrides):
        arguments = dict(plan=example.plan, policy=example.policy,
                         subjects=example.subject_names, prices=prices,
                         user="U", owners=example.owners, cache=cache)
        arguments.update(overrides)
        return assign(**arguments)

    def test_another_user_misses(self, example, prices):
        cache = AssignmentCache()
        first = self.run(example, prices, cache)
        # H owns Hosp but may not read Ins: another key, planned afresh
        # and refused, so nothing of U's entry is handed to H.
        with pytest.raises(UnauthorizedError):
            self.run(example, prices, cache, user="H")
        assert cache.info()["hits"] == 0
        assert self.run(example, prices, cache) is first

    def test_other_subjects_miss(self, example, prices):
        cache = AssignmentCache()
        first = self.run(example, prices, cache)
        fewer = [name for name in example.subject_names if name != "Z"]
        second = self.run(example, prices, cache, subjects=fewer)
        assert second is not first
        assert "Z" not in set(second.extended.assignment.values())
        reordered = self.run(example, prices, cache,
                             subjects=list(reversed(example.subject_names)))
        assert reordered is first

    def test_other_owners_miss(self, example, prices):
        cache = AssignmentCache()
        first = self.run(example, prices, cache)
        assert self.run(example, prices, cache, owners=None) is not first
        assert cache.info()["misses"] == 2
        assert self.run(example, prices, cache,
                        owners=dict(example.owners)) is first

    def test_dependency_footprint_is_built_only_on_a_miss(
            self, example, prices, monkeypatch):
        calls = []
        original = assignment_module.plan_dependencies

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(assignment_module, "plan_dependencies", counted)
        cache = AssignmentCache()
        self.run(example, prices, cache)
        assert calls == [example.plan]
        for _ in range(3):
            self.run(example, prices, cache)
        assert cache.info()["hits"] == 3
        assert calls == [example.plan]

    def test_an_entry_keeps_its_plan_until_it_ages_out(self, example,
                                                       prices):
        """The key holds the plan, so its id cannot be recycled while
        the entry lives; once the LRU drops the entry the plan goes."""
        from repro.paper_example import build_running_example

        class Referable(QueryPlan):
            """A plan a weak reference can watch."""

        cache = AssignmentCache(maxsize=1)
        transient = Referable(build_running_example().plan.root)
        self.run(example, prices, cache, plan=transient)
        plan = weakref.ref(transient)
        del transient
        gc.collect()
        assert plan() is not None
        self.run(example, prices, cache)
        gc.collect()
        assert plan() is None
        assert cache.info()["size"] == 1


class TestAssigneeIsLive:
    def test_rebinding_an_assignee_is_visible(self, example, prices):
        result = assign(example.plan, example.policy,
                        example.subject_names, prices, user="U",
                        owners=example.owners)
        original = result.assignee(example.having)
        assert result.assignee(example.having) == original  # warm lookup
        result.assignment[example.having] = "rebound"
        assert result.assignee(example.having) == "rebound"
        ext_node = next(iter(result.extended.assignment))
        result.extended.assignment[ext_node] = "rebound"
        assert result.extended.assignee(ext_node) == "rebound"
