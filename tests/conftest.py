"""Shared fixtures and plan generators for the test suite.

What is costly to build and only read is built once per session: node
RSA keypairs and query Paillier keypairs come from two pools, each
TPC-H dataset is generated once per (scale, seed, null rate), and the
17-template cold rounds run once.  Hypothesis is derandomized with no
database, so a run never depends on ``.hypothesis/`` or on fresh draws.
Tier-1 runs the ``deterministic`` profile, and each long property a
slice of its draws (``helpers.draws``); ``REPRO_SOAK=1`` loads the
``soak`` profile, under which every property runs its full count.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import random
import threading

import pytest
from hypothesis import settings

from repro.core.authorization import ANY, Authorization, Policy
from repro.core.cache import Memo
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
from repro.crypto import keymanager, paillier, rsa
from repro.crypto.symmetric import DeterministicCipher
from repro.distributed import nodes
from repro.engine.table import Table
from repro.paper_example import RunningExample, build_running_example
from repro.service import QueryService
from repro.tpch import (
    TPCH_UDFS,
    TpchData,
    all_queries,
    build_tpch_schema,
    generate,
    scenario,
)

from helpers import SOAK, authority_tables

#: Both profiles leave a property that names no count at Hypothesis'
#: default of 100; a sliced property names its count with ``draws``.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("soak", derandomize=True, database=None)
settings.load_profile("soak" if SOAK else "deterministic")

#: Keypairs in each session pool: more than any one run has subjects,
#: and more than any one store draws Paillier keys, so a ring or a store
#: drawn in one go never repeats a modulus (``build_nodes`` and
#: ``KeyStore.generate`` refuse one that does).
KEY_POOL_SIZE = 8


class KeyPool:
    """Real keypairs, each made once by ``generate`` and handed out in
    turn.  A draw is a copy of both halves with every per-key memo cold
    (RSA sign, unwrap and verify memos; the Paillier fixed-base table
    and CRT parts), so a test meets the key as if it were new: only the
    primes repeat.  A Paillier copy draws its own obfuscator base, and
    every ciphertext still draws a fresh exponent."""

    def __init__(self, generate, size: int) -> None:
        self.generate = generate
        self.size = size
        self.keys: list[tuple] = []
        self.drawn = 0
        self.guard = threading.Lock()

    def __call__(self, *args):
        with self.guard:
            slot = self.drawn % self.size
            self.drawn += 1
            if slot == len(self.keys):
                self.keys.append(self.generate(*args))
            public, private = self.keys[slot]
        public = dataclasses.replace(public)
        return public, dataclasses.replace(private, public=public)


@pytest.fixture(scope="session", autouse=True)
def key_pools():
    """Every node keypair (``generate_subject_keys``, and through it
    ``build_nodes``, ``build_runtime`` and ``QueryService``) and every
    Paillier keypair of a ``KeyStore.generate`` (``establish_keys`` and
    the stores tests build) is drawn from a session pool instead of
    fresh primes.  Modules that build a store at import time, before
    the pool is installed, get fresh keys."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nodes, "generate_keypair",
                      KeyPool(rsa.generate_keypair, KEY_POOL_SIZE))
        patch.setattr(keymanager, "generate_keypair",
                      KeyPool(paillier.generate_keypair, KEY_POOL_SIZE))
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


@pytest.fixture(scope="session")
def cold_rounds(tpch_data):
    """Two cold rounds of the 17 SQL templates on one UAPenc service
    (scale 0.002, seed 107), the tables swapped in before each round so
    every fragment executes.  Returns the service and one ``Counter``
    per round.  Read from the outcomes' node rows
    (``ExecutionTrace.nodes``): the values sealed (``encrypt_column``)
    and opened (``decrypt_column``), and those opened by a selection
    (``opened by σ``, §5 note 2).  Counted inside the cipher, where no
    row reaches: the values reaching
    ``DeterministicCipher.encrypt_many`` (``det cipher``) and its memo
    stores, that is the DETERMINISTIC seals paid (``det paid``).  Tests
    only read them."""
    schema = build_tpch_schema(0.002)
    setting = scenario("UAPenc", schema)
    tables = authority_tables(tpch_data(0.002, 107))
    service = QueryService(schema, setting.policy, setting.subjects,
                           setting.owners, tables, user=setting.user,
                           udfs=TPCH_UDFS)
    rounds: list[collections.Counter] = []
    sealing = [None]  # the encrypt memo of the cipher now sealing

    def encrypt_many(cipher, values, raw=DeterministicCipher.encrypt_many):
        sealing[0] = cipher._encrypt_memo
        try:
            tokens = raw(cipher, values)
        finally:
            sealing[0] = None
        rounds[-1]["det cipher"] += len(values)
        return tokens

    def store(memo, key, value, raw=Memo.store):
        if memo is sealing[0]:
            rounds[-1]["det paid"] += 1
        return raw(memo, key, value)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DeterministicCipher, "encrypt_many", encrypt_many)
        patch.setattr(Memo, "store", store)
        for _ in range(2):
            service.refresh_tables(tables)
            counts = collections.Counter()
            rounds.append(counts)
            for query in all_queries():
                if query.sql is None:
                    continue
                outcome = service.execute(query.sql)
                for _, _, node, _, _, sealed, opened, _ in outcome.trace.nodes:
                    counts["encrypt_column"] += sealed
                    counts["decrypt_column"] += opened
                    if isinstance(node, Selection):
                        counts["opened by σ"] += opened
    return service, rounds


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
