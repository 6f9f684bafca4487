"""Policy-versioned assignment cache and plan fingerprints."""

import pytest

from repro.core.assignment import assign
from repro.core.authorization import Authorization, Policy
from repro.core.operators import BaseRelationNode, Projection, Selection
from repro.core.plan import NodeMap, QueryPlan
from repro.core.plancache import AssignmentCache
from repro.core.predicates import value_equals
from repro.core.schema import Relation, Schema
from repro.cost.pricing import PriceList
from repro.exceptions import AuthorizationError


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


class TestPlanFingerprint:
    def build(self, value=1):
        relation = Relation("R", ["a", "b"], cardinality=100)
        return QueryPlan(Selection(BaseRelationNode(relation),
                                   value_equals("a", value)))

    def test_structurally_equal_plans_share_fingerprints(self):
        assert self.build().fingerprint() == self.build().fingerprint()

    def test_different_predicates_differ(self):
        assert self.build(1).fingerprint() != self.build(2).fingerprint()

    def test_different_cardinality_differs(self):
        small = Relation("R", ["a"], cardinality=10)
        large = Relation("R", ["a"], cardinality=1000)
        plan_small = QueryPlan(Projection(BaseRelationNode(small), ["a"]))
        plan_large = QueryPlan(Projection(BaseRelationNode(large), ["a"]))
        assert plan_small.fingerprint() != plan_large.fingerprint()

    def test_fingerprint_is_cached(self):
        plan = self.build()
        assert plan.fingerprint() is plan.fingerprint()


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

    def test_structurally_equal_plan_hits_and_rebinds(self, example,
                                                      prices):
        from repro.paper_example import build_running_example

        cache = AssignmentCache()
        first = assign(example.plan, example.policy, example.subject_names,
                       prices, user="U", owners=example.owners, cache=cache)
        other = build_running_example()
        # Same structure, same policy/prices objects: a hit, re-keyed
        # onto the fresh plan's nodes (the repeat-query scenario
        # re-parses the query per request).
        second = assign(other.plan, example.policy, example.subject_names,
                        prices, user="U", owners=example.owners, cache=cache)
        assert cache.info()["hits"] == 1
        assert second.cost is first.cost
        assert second.extended is first.extended
        # The rebound result answers for the *caller's* nodes.
        for node in other.plan.operations():
            assert second.assignee(node) in second.candidates[node]
        assert second.assignee(other.having) == first.assignee(
            example.having)
        assert second.candidates.min_views.result_profile(other.plan.root) \
            == first.candidates.min_views.result_profile(example.plan.root)

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


class TestNodeMap:
    def test_identity_keyed(self):
        relation = Relation("R", ["a"])
        first = BaseRelationNode(relation)
        second = BaseRelationNode(relation)  # structurally equal, distinct
        mapping = NodeMap([(first, "one")])
        assert mapping[first] == "one"
        assert second not in mapping
        assert mapping.get(second) is None
        with pytest.raises(KeyError):
            mapping[second]

    def test_from_mapping_and_iteration(self):
        relation = Relation("R", ["a"])
        nodes = [BaseRelationNode(relation) for _ in range(3)]
        mapping = NodeMap({node: index for index, node in enumerate(nodes)})
        assert len(mapping) == 3
        assert list(mapping.values()) == [0, 1, 2]
        assert [node for node, _ in mapping.items()] == nodes
        assert all(node in mapping for node in nodes)


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
