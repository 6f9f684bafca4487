"""The fragment cache on its own: the hit rule and the two insert fences
(:mod:`repro.distributed.fragcache`), without a runtime around it."""

import pytest

from repro.core.dispatch import dispatch
from repro.core.extension import minimally_extend
from repro.core.keys import establish_keys
from repro.core.lineage import derived_lineage
from repro.distributed.fragcache import FragmentCache, fragment_footprint
from repro.engine import Table


class Slot:
    """X's fragment of the Figure 7(a) plan, with one input and a result."""

    def __init__(self, example):
        self.policy = example.policy
        extended = minimally_extend(
            example.plan, example.policy, example.assignment_7a(),
            owners=example.owners)
        keys = establish_keys(extended, example.policy)
        self.plan = dispatch(extended, keys, owners=example.owners,
                             user="U")
        self.fragment = self.plan.fragment("reqX")
        self.footprint = fragment_footprint(
            self.fragment.root, extended.plan.profiles(),
            derived_lineage(extended.plan))
        self.inputs = (Table("in", ("S",), [("s1",)]),)
        self.result = Table("out", ("S",), [("s1",)])
        self.cache = FragmentCache(example.policy)

    def lookup(self, signature="keys", inputs=None):
        return self.cache.lookup(self.plan, self.fragment, signature,
                                 self.inputs if inputs is None else inputs)

    def store(self, ticket):
        self.cache.store(self.plan, self.fragment, "keys", self.inputs,
                         self.result, self.footprint, ticket)


@pytest.fixture
def slot(example):
    return Slot(example)


def test_hit_needs_same_keys_and_the_very_same_inputs(slot):
    found, ticket = slot.lookup()
    assert found is None
    slot.store(ticket)
    assert slot.lookup()[0] is slot.result
    assert slot.lookup(signature="other keys")[0] is None
    equal_copy = (Table("in", ("S",), [("s1",)]),)
    assert slot.lookup(inputs=equal_copy)[0] is None
    assert slot.cache.info()["fragment_hits"] == 1
    assert slot.cache.info()["fragment_misses"] == 3


def test_store_after_clear_is_dropped(slot):
    _, ticket = slot.lookup()
    slot.cache.clear()
    slot.store(ticket)
    assert slot.cache.info()["fragment_entries"] == 0
    assert slot.lookup()[0] is None


def test_store_after_a_grant_is_dropped(slot):
    _, ticket = slot.lookup()
    slot.policy.grant(slot.policy.revoke("Hosp", "Z"))
    slot.store(ticket)
    assert slot.cache.info()["fragment_entries"] == 0


def test_disjoint_revoke_rebases_and_touching_revoke_evicts(slot):
    slot.store(slot.lookup()[1])
    slot.policy.revoke("Hosp", "Z")  # Z plays no part in X's fragment
    assert slot.lookup()[0] is slot.result
    info = slot.cache.info()
    assert (info["fragment_kept"], info["fragment_evicted"]) == (1, 0)
    slot.policy.revoke("Ins", "X")
    assert slot.lookup()[0] is None
    info = slot.cache.info()
    assert (info["fragment_kept"], info["fragment_evicted"]) == (1, 1)
    assert info["fragment_entries"] == 0
