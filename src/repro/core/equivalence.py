"""Immutable equivalence-class partitions over attribute names.

Section 3.2 of the paper represents the ``R≃`` component of a relation
profile as "a disjoint-set data structure representing the closure of the
equivalence relationship implied by attributes connected in R's
computation".  :class:`EquivalenceClasses` implements exactly that closure
with value semantics: every mutation returns a new instance, so profiles
can be shared freely between plan nodes.

The paper's union notation (its §3.2 "slight abuse of notation") maps to
:meth:`EquivalenceClasses.union_set`:

* ``R≃ ∪ A`` adds ``A`` as a class if no existing class intersects it, and
  otherwise merges every intersecting class together with ``A``;
* ``R≃_i ∪ R≃_j`` (:meth:`merge`) inserts every class of one partition
  into the other.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def _normalize(sets: Iterable[Iterable[str]]) -> frozenset[frozenset[str]]:
    """Closure of an arbitrary family of sets into disjoint classes."""
    pending = [frozenset(s) for s in sets if s]
    classes: list[set[str]] = []
    for candidate in pending:
        merged = set(candidate)
        keep: list[set[str]] = []
        for existing in classes:
            if existing & merged:
                merged |= existing
            else:
                keep.append(existing)
        keep.append(merged)
        classes = keep
    return frozenset(frozenset(c) for c in classes if len(c) > 1)


class EquivalenceClasses:
    """An immutable partition of attributes into equivalence classes.

    Only classes with at least two members are stored; singleton classes
    are implicit (an attribute not appearing in any class is equivalent
    only to itself), matching the paper's profiles where ``R≃`` lists only
    the connected attribute sets.

    Examples
    --------
    >>> eq = EquivalenceClasses.empty().union_set(["S", "C"])
    >>> eq.are_equivalent("S", "C")
    True
    >>> sorted(sorted(c) for c in eq)
    [['C', 'S']]
    """

    __slots__ = ("_classes",)

    def __init__(self, classes: Iterable[Iterable[str]] = ()) -> None:
        self._classes = _normalize(classes)

    @classmethod
    def empty(cls) -> "EquivalenceClasses":
        """The partition with no non-trivial classes."""
        return cls(())

    @classmethod
    def of(cls, *classes: Iterable[str]) -> "EquivalenceClasses":
        """Build a partition from explicit classes (closure is applied)."""
        return cls(classes)

    def union_set(self, attributes: Iterable[str]) -> "EquivalenceClasses":
        """Return the partition with ``attributes`` made equivalent.

        Implements the paper's ``R≃ ∪ A`` operation: all classes
        intersecting ``attributes`` are merged together with it.
        """
        added = frozenset(attributes)
        if len(added) < 2:
            # A singleton (or empty) set never creates a non-trivial class
            # on its own, but a singleton intersecting an existing class is
            # already in that class, so nothing changes either way.
            if not added:
                return self
            member = next(iter(added))
            if any(member in c for c in self._classes):
                return self
            return self
        return EquivalenceClasses(list(self._classes) + [added])

    def merge(self, other: "EquivalenceClasses") -> "EquivalenceClasses":
        """Return the closure of the union of two partitions (``R≃l ∪ R≃r``)."""
        if not other._classes:
            return self
        if not self._classes:
            return other
        return EquivalenceClasses(list(self._classes) + list(other._classes))

    def class_of(self, attribute: str) -> frozenset[str]:
        """The class containing ``attribute`` (a singleton if unconnected)."""
        for cls_ in self._classes:
            if attribute in cls_:
                return cls_
        return frozenset({attribute})

    def are_equivalent(self, first: str, second: str) -> bool:
        """Whether the two attributes belong to the same class."""
        if first == second:
            return True
        return second in self.class_of(first)

    def members(self) -> frozenset[str]:
        """All attributes appearing in some non-trivial class."""
        result: set[str] = set()
        for cls_ in self._classes:
            result |= cls_
        return frozenset(result)

    def refines(self, other: "EquivalenceClasses") -> bool:
        """True if every class of ``self`` is contained in a class of ``other``.

        This is the partial order of Theorem 3.1(ii): profiles only coarsen
        going up the plan, i.e. the descendant's partition refines the
        ancestor's.
        """
        return all(
            any(cls_ <= coarser for coarser in other._classes | {frozenset()})
            or len(cls_) <= 1
            for cls_ in self._classes
        )

    def __iter__(self) -> Iterator[frozenset[str]]:
        return iter(self._classes)

    def __len__(self) -> int:
        return len(self._classes)

    def __bool__(self) -> bool:
        return bool(self._classes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EquivalenceClasses):
            return NotImplemented
        return self._classes == other._classes

    def __hash__(self) -> int:
        return hash(self._classes)

    def __repr__(self) -> str:
        if not self._classes:
            return "EquivalenceClasses()"
        body = ", ".join(
            "{" + ",".join(sorted(cls_)) + "}" for cls_ in sorted(
                self._classes, key=lambda c: sorted(c)
            )
        )
        return f"EquivalenceClasses({body})"
