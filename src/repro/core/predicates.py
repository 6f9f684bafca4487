"""Predicates appearing in selections and join conditions.

The paper considers basic conditions of two shapes (§3.1):

* ``a op x`` — an attribute compared with a constant
  (:class:`AttributeValuePredicate`); it adds ``a`` to the *implicit*
  component of the resulting profile;
* ``ai op aj`` — two attributes compared with each other
  (:class:`AttributeComparisonPredicate`); it adds ``{ai, aj}`` to the
  *equivalence* component.

Join conditions are Boolean formulas of basic conditions; we model them as
conjunctions (:class:`Conjunction`), which covers every condition used in
the paper and in TPC-H.

Every predicate also reports which *encryption capability* would allow it
to be evaluated on encrypted values (``EQUALITY`` → deterministic
encryption, ``ORDER`` → OPE, ``NONE`` → plaintext only), which drives the
computation of the plaintext-requirement sets ``Ap`` of Definition 5.2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.exceptions import PlanError


class ComparisonOp(enum.Enum):
    """Comparison operators usable in basic conditions."""

    EQ = "="
    NEQ = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    LIKE = "like"
    IN = "in"

    def __str__(self) -> str:
        return self.value


class EncryptedCapability(enum.Enum):
    """What an encryption scheme must support to evaluate a predicate."""

    #: Evaluable on deterministically encrypted values (equality matching).
    EQUALITY = "equality"
    #: Needs order-preserving encryption (range comparisons).
    ORDER = "order"
    #: Needs additively homomorphic encryption (sums/averages).
    ADDITION = "addition"
    #: Not evaluable on encrypted values at all.
    NONE = "none"


_OP_CAPABILITY = {
    ComparisonOp.EQ: EncryptedCapability.EQUALITY,
    ComparisonOp.NEQ: EncryptedCapability.EQUALITY,
    ComparisonOp.IN: EncryptedCapability.EQUALITY,
    ComparisonOp.LT: EncryptedCapability.ORDER,
    ComparisonOp.LE: EncryptedCapability.ORDER,
    ComparisonOp.GT: EncryptedCapability.ORDER,
    ComparisonOp.GE: EncryptedCapability.ORDER,
    ComparisonOp.LIKE: EncryptedCapability.NONE,
}


class Predicate:
    """Abstract base class for predicates."""

    def attributes(self) -> frozenset[str]:
        """All attributes referenced by the predicate."""
        raise NotImplementedError

    def basic_conditions(self) -> Iterator["Predicate"]:
        """Iterate over the basic (non-composite) conditions."""
        yield self

    def required_capability(self) -> EncryptedCapability:
        """Scheme capability needed to evaluate on encrypted values."""
        raise NotImplementedError


@dataclass(frozen=True)
class AttributeValuePredicate(Predicate):
    """A basic condition ``a op x`` with ``x`` a constant.

    Examples
    --------
    >>> p = AttributeValuePredicate("D", ComparisonOp.EQ, "stroke")
    >>> str(p)
    "D='stroke'"
    """

    attribute: str
    op: ComparisonOp
    value: object

    def attributes(self) -> frozenset[str]:
        return frozenset({self.attribute})

    def required_capability(self) -> EncryptedCapability:
        return _OP_CAPABILITY[self.op]

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"{self.attribute}{self.op}'{self.value}'"
        if isinstance(self.value, (tuple, list, frozenset, set)):
            items = ", ".join(repr(v) for v in self.value)
            return f"{self.attribute} in ({items})"
        return f"{self.attribute}{self.op}{self.value}"


@dataclass(frozen=True)
class AttributeComparisonPredicate(Predicate):
    """A basic condition ``ai op aj`` between two attributes.

    Examples
    --------
    >>> p = AttributeComparisonPredicate("S", ComparisonOp.EQ, "C")
    >>> str(p)
    'S=C'
    """

    left: str
    right: str
    op: ComparisonOp = ComparisonOp.EQ

    def __init__(self, left: str, op: ComparisonOp | str = ComparisonOp.EQ,
                 right: str | None = None) -> None:
        # Accept both (left, op, right) and (left, right) argument orders
        # used historically; normalise to attribute/op/attribute.
        if right is None:
            if isinstance(op, ComparisonOp):
                raise PlanError("comparison predicate needs two attributes")
            left, op, right = left, ComparisonOp.EQ, op
        if isinstance(op, str):
            op = ComparisonOp(op)
        if left == right:
            raise PlanError(f"comparison of attribute {left!r} with itself")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "op", op)

    def attributes(self) -> frozenset[str]:
        return frozenset({self.left, self.right})

    def required_capability(self) -> EncryptedCapability:
        return _OP_CAPABILITY[self.op]

    def __str__(self) -> str:
        return f"{self.left}{self.op}{self.right}"


@dataclass(frozen=True)
class Conjunction(Predicate):
    """A conjunction of basic conditions (Boolean formula of §3.1)."""

    predicates: tuple[Predicate, ...]

    def __init__(self, predicates: Sequence[Predicate] | Iterable[Predicate]) -> None:
        flattened: list[Predicate] = []
        for predicate in predicates:
            if isinstance(predicate, Conjunction):
                flattened.extend(predicate.predicates)
            else:
                flattened.append(predicate)
        if not flattened:
            raise PlanError("conjunction must contain at least one predicate")
        object.__setattr__(self, "predicates", tuple(flattened))

    def attributes(self) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for predicate in self.predicates:
            result |= predicate.attributes()
        return result

    def basic_conditions(self) -> Iterator[Predicate]:
        # The constructor flattened nested conjunctions: every member is
        # a basic condition.
        return iter(self.predicates)

    def required_capability(self) -> EncryptedCapability:
        # The strongest requirement among the conjuncts wins; NONE is the
        # absorbing element (one un-evaluable conjunct forces plaintext for
        # its own attributes only, but callers ask per basic condition).
        capabilities = {p.required_capability() for p in self.predicates}
        if EncryptedCapability.NONE in capabilities:
            return EncryptedCapability.NONE
        if EncryptedCapability.ORDER in capabilities:
            return EncryptedCapability.ORDER
        return EncryptedCapability.EQUALITY

    def __str__(self) -> str:
        return " AND ".join(str(p) for p in self.predicates)


def equals(left: str, right: str) -> AttributeComparisonPredicate:
    """Shorthand for the equi-condition ``left = right``."""
    return AttributeComparisonPredicate(left, ComparisonOp.EQ, right)


def value_equals(attribute: str, value: object) -> AttributeValuePredicate:
    """Shorthand for the condition ``attribute = value``."""
    return AttributeValuePredicate(attribute, ComparisonOp.EQ, value)
