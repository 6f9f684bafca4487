"""Shared fixtures and plan generators for the test suite.

What is costly to build and only read is built once per session: node
RSA keypairs come from one pool, and each TPC-H dataset is generated
once per (scale, seed, null rate).  Hypothesis runs one deterministic
profile, so a run never depends on ``.hypothesis/`` or on fresh draws.
"""

from __future__ import annotations

import dataclasses
import functools
import random
import threading

import pytest
from hypothesis import settings

from repro.core.authorization import ANY, Authorization, Policy
from repro.core.operators import (
    Aggregate,
    AggregateFunction,
    BaseRelationNode,
    GroupBy,
    Join,
    PlanNode,
    Projection,
    Selection,
    Udf,
)
from repro.core.plan import QueryPlan
from repro.core.predicates import (
    AttributeComparisonPredicate,
    AttributeValuePredicate,
    ComparisonOp,
    equals,
)
from repro.core.schema import Relation, Schema
from repro.crypto import rsa
from repro.distributed import nodes
from repro.engine.table import Table
from repro.paper_example import RunningExample, build_running_example
from repro.tpch import TpchData, generate

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

#: Keypairs in the session pool: more than any one run has subjects, so
#: a ring drawn in one go never repeats a modulus (``build_nodes``
#: refuses one that does).
RSA_POOL_SIZE = 8


class RsaKeyPool:
    """Real RSA keypairs, each made once by ``generate_keypair`` and
    handed out in turn.  A draw is a copy with cold sign, unwrap and
    verify memos, so a test meets the key as if it were new: only the
    primes repeat."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.keys: list[tuple[rsa.RsaPublicKey, rsa.RsaPrivateKey]] = []
        self.drawn = 0
        self.guard = threading.Lock()

    def __call__(self, bits: int = rsa.DEFAULT_RSA_BITS):
        with self.guard:
            slot = self.drawn % self.size
            self.drawn += 1
            if slot == len(self.keys):
                self.keys.append(rsa.generate_keypair(bits))
            public, private = self.keys[slot]
        public = dataclasses.replace(public)
        return public, dataclasses.replace(private, public=public)


@pytest.fixture(scope="session", autouse=True)
def rsa_key_pool():
    """Every node keypair (``generate_subject_keys``, and through it
    ``build_nodes``, ``build_runtime`` and ``QueryService``) is drawn
    from one session pool instead of fresh primes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nodes, "generate_keypair", RsaKeyPool(RSA_POOL_SIZE))
        yield


@pytest.fixture()
def fresh_rsa_keys(monkeypatch):
    """Node keypairs from fresh primes, for tests about key generation
    itself."""
    monkeypatch.setattr(nodes, "generate_keypair", rsa.generate_keypair)


@pytest.fixture(scope="session")
def tpch_data():
    """``tpch_data(scale, seed, null_rate=0.0)``: the generated dataset,
    built once per session.  Tests share it: one that changes a table
    copies it first."""

    @functools.cache
    def build(scale: float, seed: int, null_rate: float = 0.0) -> TpchData:
        return generate(scale=scale, seed=seed, null_rate=null_rate)

    return build


@pytest.fixture()
def example() -> RunningExample:
    """The paper's running example (fresh per test)."""
    return build_running_example()


@pytest.fixture()
def example_tables() -> dict[str, Table]:
    """Concrete rows for Hosp and Ins matching the running example."""
    hosp = Table("Hosp", ("S", "B", "D", "T"), [
        ("s1", 1980, "stroke", "tpa"),
        ("s2", 1975, "stroke", "tpa"),
        ("s3", 1990, "flu", "rest"),
        ("s4", 1960, "stroke", "surgery"),
        ("s5", 1955, "stroke", "surgery"),
    ])
    ins = Table("Ins", ("C", "P"), [
        ("s1", 150.0), ("s2", 90.0), ("s3", 200.0),
        ("s4", 60.0), ("s5", 50.0),
    ])
    return {"Hosp": hosp, "Ins": ins}


# ---------------------------------------------------------------------------
# Random plan/policy generation (shared by the property-based tests).
# ---------------------------------------------------------------------------

SUBJECT_NAMES = ("U", "S1", "S2", "S3")


class RandomScenario:
    """A randomly generated (schema, plan, policy, subjects) bundle."""

    def __init__(self, seed: int, relations: int = 3,
                 attrs_per_relation: int = 3) -> None:
        self.rng = random.Random(seed)
        self.schema = Schema()
        self.relations = []
        for r in range(relations):
            relation = self.schema.add(Relation(
                f"R{r}",
                [f"a{r}_{i}" for i in range(attrs_per_relation)],
                cardinality=100 * (r + 1),
            ))
            self.relations.append(relation)
        self.plan = QueryPlan(self._build_tree())
        self.policy = self._build_policy()
        self.subjects = list(SUBJECT_NAMES)

    # -- plan ------------------------------------------------------------
    def _leaf(self, relation: Relation) -> PlanNode:
        names = list(relation.attribute_names)
        keep = self.rng.sample(names, k=self.rng.randint(2, len(names)))
        return BaseRelationNode(relation, keep)

    def _maybe_select(self, node: PlanNode,
                      attrs: list[str]) -> tuple[PlanNode, list[str]]:
        choice = self.rng.random()
        if choice < 0.4 and attrs:
            attribute = self.rng.choice(attrs)
            op = self.rng.choice(
                [ComparisonOp.EQ, ComparisonOp.GT, ComparisonOp.LE]
            )
            node = Selection(
                node, AttributeValuePredicate(attribute, op, 7)
            )
        elif choice < 0.6 and len(attrs) >= 2:
            first, second = self.rng.sample(attrs, 2)
            node = Selection(node, AttributeComparisonPredicate(
                first, ComparisonOp.EQ, second))
        return node, attrs

    def _build_tree(self) -> PlanNode:
        subtrees: list[tuple[PlanNode, list[str]]] = []
        for relation in self.relations:
            leaf = self._leaf(relation)
            attrs = sorted(leaf.projection)
            node, attrs = self._maybe_select(leaf, attrs)
            subtrees.append((node, attrs))
        current, current_attrs = subtrees[0]
        for node, attrs in subtrees[1:]:
            left_key = self.rng.choice(current_attrs)
            right_key = self.rng.choice(attrs)
            current = Join(current, node, equals(left_key, right_key))
            current_attrs = current_attrs + attrs
        if self.rng.random() < 0.5 and len(current_attrs) >= 2:
            group = [current_attrs[0]]
            target = current_attrs[-1]
            if target not in group:
                if self.rng.random() < 0.8:
                    function = self.rng.choice(
                        [AggregateFunction.SUM, AggregateFunction.AVG,
                         AggregateFunction.MIN])
                    aggregate = Aggregate(function, target,
                                          alias="agg_out")
                else:
                    aggregate = Aggregate(AggregateFunction.COUNT,
                                          alias="agg_out")
                current = GroupBy(current, group, aggregate)
        elif self.rng.random() < 0.5 and len(current_attrs) >= 2:
            keep = self.rng.sample(
                current_attrs, k=self.rng.randint(1, len(current_attrs))
            )
            current = Projection(current, keep)
        return current

    # -- policy ----------------------------------------------------------
    def _build_policy(self) -> Policy:
        policy = Policy(self.schema)
        for relation in self.relations:
            names = list(relation.attribute_names)
            policy.grant(Authorization(relation, names, (), "U"))
            for subject in ("S1", "S2", "S3"):
                split = self.rng.randint(0, len(names))
                shuffled = names[:]
                self.rng.shuffle(shuffled)
                plaintext = shuffled[:split]
                encrypted_count = self.rng.randint(
                    0, len(names) - split
                )
                encrypted = shuffled[split:split + encrypted_count]
                if plaintext or encrypted:
                    policy.grant(Authorization(
                        relation, plaintext, encrypted, subject
                    ))
            if self.rng.random() < 0.3:
                policy.grant(Authorization(relation, (), names, ANY))
        return policy


@pytest.fixture(params=range(6))
def random_scenario(request) -> RandomScenario:
    """Six deterministic random scenarios (seeded)."""
    return RandomScenario(seed=request.param)
