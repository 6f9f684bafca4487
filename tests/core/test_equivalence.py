"""Unit and property tests for the equivalence-class partition (R≃)."""

from hypothesis import given, settings, strategies as st

from repro.core.equivalence import EquivalenceClasses

from helpers import draws

ATTRS = st.sampled_from(list("ABCDEFGH"))
CLASSES = st.lists(
    st.frozensets(ATTRS, min_size=2, max_size=4), min_size=0, max_size=5
)


class TestBasics:
    def test_empty(self):
        eq = EquivalenceClasses.empty()
        assert not eq
        assert len(eq) == 0
        assert eq.class_of("A") == frozenset({"A"})

    def test_union_set_creates_class(self):
        eq = EquivalenceClasses.empty().union_set({"S", "C"})
        assert eq.are_equivalent("S", "C")
        assert eq.class_of("S") == frozenset({"S", "C"})

    def test_union_set_merges_overlapping(self):
        eq = EquivalenceClasses.of({"A", "B"}, {"C", "D"})
        merged = eq.union_set({"B", "C"})
        assert merged.class_of("A") == frozenset("ABCD")

    def test_singleton_union_is_noop(self):
        eq = EquivalenceClasses.of({"A", "B"})
        assert eq.union_set({"A"}) == eq
        assert eq.union_set({"Z"}) == eq
        assert eq.union_set(set()) == eq

    def test_transitive_closure_on_construction(self):
        eq = EquivalenceClasses.of({"A", "B"}, {"B", "C"})
        assert eq.are_equivalent("A", "C")
        assert len(eq) == 1

    def test_merge_partitions(self):
        left = EquivalenceClasses.of({"A", "B"})
        right = EquivalenceClasses.of({"B", "C"}, {"D", "E"})
        merged = left.merge(right)
        assert merged.class_of("A") == frozenset("ABC")
        assert merged.class_of("D") == frozenset("DE")

    def test_merge_with_empty(self):
        eq = EquivalenceClasses.of({"A", "B"})
        assert eq.merge(EquivalenceClasses.empty()) == eq
        assert EquivalenceClasses.empty().merge(eq) == eq

    def test_members(self):
        eq = EquivalenceClasses.of({"A", "B"}, {"C", "D"})
        assert eq.members() == frozenset("ABCD")

    def test_refines(self):
        fine = EquivalenceClasses.of({"A", "B"})
        coarse = EquivalenceClasses.of({"A", "B", "C"})
        assert fine.refines(coarse)
        assert not coarse.refines(fine)

    def test_equality_and_hash(self):
        first = EquivalenceClasses.of({"A", "B"}, {"C", "D"})
        second = EquivalenceClasses.of({"C", "D"}, {"B", "A"})
        assert first == second
        assert hash(first) == hash(second)

    def test_repr_is_stable(self):
        eq = EquivalenceClasses.of({"B", "A"})
        assert repr(eq) == "EquivalenceClasses({A,B})"


class TestProperties:
    @settings(max_examples=draws(100, 25))
    @given(CLASSES)
    def test_classes_are_disjoint(self, classes):
        eq = EquivalenceClasses(classes)
        seen: set[str] = set()
        for cls_ in eq:
            assert not (cls_ & seen)
            seen |= cls_

    @settings(max_examples=draws(100, 25))
    @given(CLASSES, st.frozensets(ATTRS, min_size=2, max_size=4))
    def test_union_set_makes_members_equivalent(self, classes, added):
        eq = EquivalenceClasses(classes).union_set(added)
        members = sorted(added)
        for other in members[1:]:
            assert eq.are_equivalent(members[0], other)

    @settings(max_examples=draws(100, 25))
    @given(CLASSES, CLASSES)
    def test_merge_is_commutative(self, first, second):
        a = EquivalenceClasses(first)
        b = EquivalenceClasses(second)
        assert a.merge(b) == b.merge(a)

    @settings(max_examples=draws(100, 25))
    @given(CLASSES, st.frozensets(ATTRS, min_size=2, max_size=4))
    def test_union_only_coarsens(self, classes, added):
        before = EquivalenceClasses(classes)
        after = before.union_set(added)
        assert before.refines(after)

    @settings(max_examples=draws(100, 25))
    @given(CLASSES)
    def test_equivalence_is_symmetric(self, classes):
        eq = EquivalenceClasses(classes)
        for cls_ in eq:
            members = sorted(cls_)
            for first in members:
                for second in members:
                    assert eq.are_equivalent(first, second)
                    assert eq.are_equivalent(second, first)
