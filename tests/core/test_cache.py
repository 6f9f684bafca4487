"""core/cache.py: the one LRU and the one reconcile contract.

The reconcile function is checked against a brute-force model that
keeps every delta ever journalled (so it never forgets) and decides
survival by plain set algebra, over seeded random grant/revoke streams.
"""

import random

import pytest

from repro.core.authorization import ANY, Authorization
from repro.core.cache import (
    CURRENT,
    EVICTED,
    FLUSHED,
    KEPT,
    LRU,
    Entry,
    Reconciler,
    reconcile,
)


class TestLRU:
    def test_evicts_least_recently_used_not_oldest_inserted(self):
        cache = LRU(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes a
        cache.put("c", 3)           # evicts b
        assert cache.peek("b") is None
        assert cache.peek("a") == 1 and cache.peek("c") == 3
        assert [*cache.values()] == [1, 3]

    def test_put_refreshes_and_overwrites(self):
        cache = LRU(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)          # a is now the most recent
        cache.put("c", 3)           # evicts b
        assert cache.peek("a") == 10 and cache.peek("b") is None

    def test_bound_holds_under_any_traffic(self):
        rng = random.Random(7)
        cache = LRU(5)
        for _ in range(500):
            key = rng.randrange(20)
            if rng.random() < 0.5:
                cache.put(key, key)
            else:
                assert cache.get(key) in (None, key)
            assert len(cache) <= 5

    def test_counters_and_uniform_info(self):
        cache = LRU(3)
        assert cache.get("missing") is None
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.peek("k") == "v"         # neither hit nor miss
        assert cache.peek("missing") is None
        assert cache.info() == {
            "hits": 1, "misses": 1, "size": 1, "maxsize": 3}

    def test_peek_does_not_refresh_recency(self):
        cache = LRU(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.peek("a")
        cache.put("c", 3)           # a is still the oldest
        assert cache.peek("a") is None

    def test_rejected_entry_is_dropped_and_counts_as_a_miss(self):
        cache = LRU(2)
        cache.put("k", "stale")
        assert cache.get("k", valid=lambda value: False) is None
        assert len(cache) == 0
        assert cache.info()["misses"] == 1 and cache.info()["hits"] == 0
        cache.put("k", "fresh")
        assert cache.get("k", valid=lambda value: True) == "fresh"

    @pytest.mark.parametrize("maxsize", [0, -1, 2.5, None])
    def test_rejects_bad_maxsize(self, maxsize):
        with pytest.raises(ValueError):
            LRU(maxsize)


def churn(rng, policy, schema, relation_names, subject_pool):
    """One random effective mutation (revoke, grant or revoke+regrant)."""
    relation = schema.relation(rng.choice(relation_names))
    subject = rng.choice(subject_pool)
    removed = policy.revoke(relation.name, subject)
    if removed is not None and rng.random() < 0.4:
        return
    names = list(relation.attribute_names)
    rng.shuffle(names)
    count = rng.randint(1, len(names))
    split = rng.randint(0, count)
    policy.grant(Authorization(
        relation, names[:split], names[split:count], subject))


class Model:
    """Brute force: every delta ever applied, never truncated."""

    def __init__(self, policy):
        self.policy = policy
        self.seen = policy.version
        self.log = []

    def catch_up(self):
        """Record the deltas of the mutation just applied."""
        fresh = self.policy.deltas_since(self.seen)
        if fresh is None:
            # journal_limit=0: the journal is empty; remember only that
            # *something* happened at these versions.
            fresh = [None] * (self.policy.version - self.seen)
        self.log.extend(fresh)
        self.seen = self.policy.version

    def touching(self, version, subjects, attributes):
        """Whether any delta after ``version`` can touch the footprint."""
        for delta in self.log[len(self.log)
                              - (self.policy.version - version):]:
            if delta is None:
                return True
            if delta.subject != ANY and delta.subject not in subjects:
                continue
            if attributes is None or delta.touched & attributes:
                return True
        return False


def random_footprints(rng, subject_pool, attribute_pool, count):
    footprints = []
    for _ in range(count):
        subjects = frozenset(rng.sample(
            subject_pool, k=rng.randint(1, len(subject_pool))))
        attributes = None if rng.random() < 0.2 else frozenset(rng.sample(
            attribute_pool, k=rng.randint(1, len(attribute_pool))))
        footprints.append((subjects, attributes))
    return footprints


def run_stream(policy, schema, relation_names, subject_pool, seed,
               steps=80):
    """Drive a stream; returns the verdict tally.  Entries are stamped
    at random moments and re-examined at random later ones, so streams
    of every length (and rebased entries) meet the contract."""
    rng = random.Random(seed)
    attribute_pool = sorted({name for relation in relation_names
                             for name in
                             schema.relation(relation).attribute_names})
    named = [s for s in subject_pool if s != ANY]
    model = Model(policy)
    reconciler = Reconciler()
    entries = [Entry(index, policy, subjects, attributes)
               for index, (subjects, attributes) in enumerate(
                   random_footprints(rng, named, attribute_pool, 12))]
    tally = {CURRENT: 0, KEPT: 0, EVICTED: 0, FLUSHED: 0}
    for _ in range(steps):
        churn(rng, policy, schema, relation_names, subject_pool)
        model.catch_up()
        for position, entry in enumerate(entries):
            if rng.random() < 0.6:
                continue  # let deltas pile up for this entry
            stamped = entry.version
            verdict = reconcile(policy, entry)
            tally[verdict] += 1
            touched = model.touching(stamped, entry.subjects,
                                     entry.attributes)
            if verdict == CURRENT:
                assert stamped == policy.version
            if verdict == KEPT:
                # survives ⟹ disjoint from every intervening delta
                assert not touched
            if touched:
                # a touching delta (a revoke among them) is never
                # under-invalidated
                assert verdict in (EVICTED, FLUSHED)
            if verdict == FLUSHED:
                assert policy.deltas_since(stamped) is None
            survived = reconciler.survives(policy, entry)
            assert survived == (verdict in (CURRENT, KEPT))
            if survived:
                assert entry.version == policy.version  # rebased
            else:
                entries[position] = Entry(
                    entry.value, policy, entry.subjects, entry.attributes)
    assert reconciler.counts == {
        KEPT: tally[KEPT], EVICTED: tally[EVICTED],
        FLUSHED: tally[FLUSHED]}
    return tally


class TestReconcileAgainstBruteForce:
    def test_running_example_stream(self, example):
        pool = list(example.subject_names) + [ANY]
        tally = run_stream(example.policy, example.schema,
                           ["Hosp", "Ins"], pool, seed=1701)
        assert tally[KEPT] and tally[EVICTED]  # both paths exercised

    def test_random_scenario_stream(self, random_scenario):
        scenario = random_scenario
        pool = list(scenario.subjects) + ["outsider", ANY]
        tally = run_stream(
            scenario.policy, scenario.schema,
            [r.name for r in scenario.relations], pool, seed=1702)
        assert tally[KEPT] and tally[EVICTED]

    @pytest.mark.parametrize("limit", [0, 2])
    def test_truncated_or_disabled_journal_flushes(self, example, limit):
        example.policy.journal_limit = limit
        pool = list(example.subject_names) + [ANY]
        tally = run_stream(example.policy, example.schema,
                           ["Hosp", "Ins"], pool, seed=1703, steps=40)
        assert tally[FLUSHED]
        if limit == 0:
            assert not tally[KEPT] and not tally[EVICTED]


class TestReconcileCases:
    def test_any_subject_delta_touches_every_subject(self, example):
        entry = Entry("v", example.policy, frozenset({"nobody"}),
                      frozenset({"S", "B", "D", "T"}))
        assert example.policy.revoke("Hosp", ANY) is not None
        assert reconcile(example.policy, entry) == EVICTED

    def test_disjoint_revoke_keeps_and_rebases(self, example):
        entry = Entry("v", example.policy, frozenset({"X", "Y"}),
                      frozenset({"C", "P"}))
        example.policy.revoke("Hosp", "Z")
        reconciler = Reconciler()
        assert reconciler.survives(example.policy, entry)
        assert entry.version == example.policy.version
        assert reconcile(example.policy, entry) == CURRENT
        assert reconciler.info() == {
            "reconcile_kept": 1, "reconcile_evicted": 0,
            "reconcile_flushed": 0}

    def test_touching_revoke_is_never_kept(self, example):
        entry = Entry("v", example.policy, frozenset({"X"}),
                      frozenset({"C", "P"}))
        example.policy.revoke("Ins", "X")
        reconciler = Reconciler()
        assert not reconciler.survives(example.policy, entry)
        assert reconciler.info("fragment_")["fragment_evicted"] == 1

    def test_entry_without_footprint_dies_on_any_delta(self, example):
        entry = Entry("v", example.policy)
        assert reconcile(example.policy, entry) == CURRENT
        example.policy.revoke("Hosp", "Z")
        assert reconcile(example.policy, entry) == EVICTED

    def test_unstamped_entry_is_always_current(self, example):
        entry = Entry("v")
        example.policy.revoke("Hosp", "Z")
        assert reconcile(example.policy, entry) == CURRENT

    def test_foreign_policy_flushes(self, example):
        from repro.paper_example import build_running_example

        other = build_running_example().policy
        entry = Entry("v", other, frozenset({"X"}), frozenset({"C"}))
        assert other.version == example.policy.version
        assert reconcile(example.policy, entry) == FLUSHED
