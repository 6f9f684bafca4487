"""Per-assignment artifacts live and die with their assignment.

Key material and the dispatch plan ride on the ``AssignmentResult``;
fragment results hang off the dispatch plan in the runtime's weak map.
Nothing else may pin them: however long the policy churns, what is alive
is bounded by what the assignment cache holds.
"""

import gc
import sys
import threading
import weakref

import pytest

import repro.service.workload as workload_module
from repro.crypto.keymanager import DistributedKeys
from repro.exceptions import UnauthorizedError
from repro.service import QueryService

TEMPLATES = (
    "select T, avg(P) from Hosp join Ins on S=C "
    "where D='stroke' group by T having avg(P)>100",
    "select T, P from Hosp join Ins on S=C where D='stroke'",
    "select D, avg(P) from Hosp join Ins on S=C group by D",
)


@pytest.fixture()
def service(example, example_tables):
    built = QueryService(
        example.schema, example.policy, example.subjects, example.owners,
        {"H": {"Hosp": example_tables["Hosp"]},
         "I": {"Ins": example_tables["Ins"]}},
        user="U",
    )
    return built


class Live:
    """Weak references to everything added; iterates the survivors."""

    def __init__(self):
        self.refs = []

    def add(self, item):
        self.refs.append(weakref.ref(item))

    def __iter__(self):
        return (item for item in (ref() for ref in self.refs)
                if item is not None)

    def __len__(self):
        return sum(1 for _ in self)


@pytest.fixture()
def built(monkeypatch):
    """Every key set and dispatch plan the service builds, held weakly."""
    keys, plans = Live(), Live()
    made = {"keys": 0, "plans": 0}
    from_assignment = DistributedKeys.from_assignment
    dispatch = workload_module.dispatch

    def tracking_keys(assignment):
        material = from_assignment(assignment)
        keys.add(material)
        made["keys"] += 1
        return material

    def tracking_dispatch(*args, **kwargs):
        plan = dispatch(*args, **kwargs)
        plans.add(plan)
        made["plans"] += 1
        return plan

    monkeypatch.setattr(DistributedKeys, "from_assignment",
                        staticmethod(tracking_keys))
    monkeypatch.setattr(workload_module, "dispatch", tracking_dispatch)
    return keys, plans, made


def rows(service, sql, user=None):
    """Run ``sql`` and keep only the answer (an outcome pins its
    assignment, which is exactly what these tests must not do)."""
    return service.execute(sql, user=user).result.sorted_rows()


class TestOwnershipUnderChurn:
    def test_live_artifacts_bounded_by_cached_assignments(
            self, example, service, built):
        keys, plans, made = built
        expected = [rows(service, sql) for sql in TEMPLATES]
        cycles = 40
        for _ in range(cycles):
            # Y is a candidate of every template: both halves of the
            # cycle touch every cached assignment.
            rule = example.policy.revoke("Ins", "Y")
            for sql, answer in zip(TEMPLATES, expected):
                assert rows(service, sql) == answer
            example.policy.grant(rule)
            for sql, answer in zip(TEMPLATES, expected):
                assert rows(service, sql) == answer
        gc.collect()
        info = service.cache_info()
        assert info["assignment"]["reconcile_evicted"] \
            >= 2 * cycles * len(TEMPLATES)
        # Every eviction re-keyed and re-dispatched ...
        assert made["keys"] >= 2 * cycles * len(TEMPLATES)
        assert made["plans"] == made["keys"]
        # ... yet only the cached assignments' artifacts are alive.
        live = info["assignment"]["size"]
        assert live == len(TEMPLATES)
        assert len(keys) == live
        assert len(plans) == live
        fragments = sum(len(plan.fragments) for plan in plans)
        assert 0 < info["fragment_entries"] <= fragments

    def test_evicted_assignment_frees_its_fragment_tables(
            self, example, service, built):
        _keys, plans, _made = built
        for _ in range(2):
            rows(service, TEMPLATES[0])
            gc.collect()
            (plan,) = plans  # the latest; its predecessor is gone
            assert service.cache_info()["fragment_entries"] \
                == len(plan.fragments)
            del plan
            example.policy.revoke("Ins", "Y")


class TestSharedCell:
    def test_a_reparsed_plan_misses_after_plan_cache_overflow(
            self, service, built):
        _keys, _plans, made = built
        cold = service.execute(TEMPLATES[0])
        assert not cold.keys_reused
        # Push the hot SQL's plan out of the plan cache: its next query
        # re-parses into a new plan object, and the assignment cache is
        # keyed by the plan object, so the query is planned and keyed
        # once more.
        for literal in range(service._plan_cache.maxsize + 1):
            service._plan_cache.put(f"filler {literal}", object())
        warm = service.execute(TEMPLATES[0])
        assert not warm.plan_cached
        assert not warm.assignment_cached
        assert warm.assignment is not cold.assignment
        assert warm.assignment.derived is not cold.assignment.derived
        assert not warm.keys_reused
        assert made["keys"] == 2
        assert warm.result.sorted_rows() == cold.result.sorted_rows()
        # The old plan's entry is unreachable; the LRU bounds it.
        info = service.cache_info()["assignment"]
        assert info["size"] == 2 and info["maxsize"] == 256
        assert service.execute(TEMPLATES[0]).keys_reused

    def test_racing_cold_queries_attach_one_key_set(
            self, service, built, monkeypatch):
        _keys, _plans, made = built
        racers = 2
        barrier = threading.Barrier(racers)
        tracking = DistributedKeys.from_assignment

        def rendezvous(assignment):
            # Both threads are past the first look at the empty cell
            # before either fills it.
            barrier.wait(timeout=10)
            return tracking(assignment)

        monkeypatch.setattr(DistributedKeys, "from_assignment",
                            staticmethod(rendezvous))
        outcomes, errors = [], []

        def run():
            try:
                outcomes.append(service.execute(TEMPLATES[0]))
            except Exception as error:  # surfaced below
                errors.append(error)

        threads = [threading.Thread(target=run) for _ in range(racers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert not any(thread.is_alive() for thread in threads)
        first, second = outcomes
        assert first.result.sorted_rows() == second.result.sorted_rows()
        assert made["keys"] == racers  # both paid for key generation
        assert not first.keys_reused and not second.keys_reused
        assert first.assignment.derived is second.assignment.derived
        assert len(first.assignment.derived) == 1
        assert service.execute(TEMPLATES[0]).keys_reused


class TestHotUserTopology:
    def test_strangers_cannot_evict_a_user_who_keeps_querying(
            self, service):
        cold = service.execute(TEMPLATES[0])
        assert not cold.assignment_cached
        for stranger in range(600):
            # Unknown users are refused by authorization; none of them
            # costs the hot user a cache entry.
            with pytest.raises(UnauthorizedError):
                service.execute(TEMPLATES[0], user=f"stranger-{stranger}")
            if stranger % 10 == 9:
                warm = service.execute(TEMPLATES[0])
                assert warm.assignment_cached, stranger
                assert warm.keys_reused, stranger
