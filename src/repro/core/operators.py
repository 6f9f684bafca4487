"""Query-plan nodes and the profile-propagation rules of Figure 2.

A query plan is a tree whose leaves are base relations and whose internal
nodes are relational operations (§1).  Each operator states its Figure 2
row once, and declares what the other layers read off it:

* ``output_profile`` — the Figure 2 rule computing the result profile from
  the operand profiles; the produced relation's schema is the result's
  ``visible`` set;
* ``demands`` — the operand attributes the operation reads, each with the
  capability an encrypted value needs for it (``Ap`` inference, scheme
  selection, the planner's scheme penalty, key establishment);
* ``uniform_groups`` — the attribute sets the operation needs all
  plaintext or all encrypted (§3.2): ``output_profile`` refuses a mix,
  minimal extension repairs one;
* ``implicit_introduced`` — the attributes the operation newly moves into
  the implicit component (used by Definition 5.4(ii)).

An operator's constructor computes its ``demands`` and ``uniform_groups``
once per node: the layers above read them many times per plan.

Nodes use identity semantics (two structurally equal nodes are still
distinct plan positions), which lets plans serve as dictionary keys for
profiles, assignments, and candidate sets.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import enum
from dataclasses import dataclass

from repro.core.predicates import (
    AttributeComparisonPredicate,
    AttributeValuePredicate,
    ComparisonOp,
    EncryptedCapability,
    Predicate,
)
from repro.core.profile import RelationProfile
from repro.core.schema import Relation
from repro.exceptions import OperationRequirementError, PlanError


class AggregateFunction(enum.Enum):
    """Aggregate functions supported by the group-by operator."""

    SUM = "sum"
    AVG = "avg"
    MIN = "min"
    MAX = "max"
    COUNT = "count"

    def __str__(self) -> str:
        return self.value


_AGGREGATE_CAPABILITY = {
    AggregateFunction.SUM: EncryptedCapability.ADDITION,
    AggregateFunction.AVG: EncryptedCapability.ADDITION,
    AggregateFunction.MIN: EncryptedCapability.ORDER,
    AggregateFunction.MAX: EncryptedCapability.ORDER,
    AggregateFunction.COUNT: EncryptedCapability.EQUALITY,
}


@dataclass(frozen=True)
class Aggregate:
    """An aggregate ``f(a)``; ``attribute`` is ``None`` for ``count(*)``.

    Following the paper's convention, the output column keeps the name of
    the aggregated attribute (``avg(P)`` is still called ``P``).  An
    optional ``alias`` renames the output — the renaming extension the
    paper's footnote 1 anticipates; an aliased output stays *equivalent*
    to its source attribute in the profile (its values derive from it),
    except for ``count(*)``, whose output is a fresh plaintext counter.
    """

    function: AggregateFunction
    attribute: str | None = None
    alias: str | None = None

    def __post_init__(self) -> None:
        if self.attribute is None \
                and self.function is not AggregateFunction.COUNT:
            raise PlanError(f"{self.function} requires an attribute")
        if self.attribute is None and self.alias is None:
            raise PlanError("count(*) needs an alias to appear in the output")

    @property
    def output_name(self) -> str:
        """Name of the produced column."""
        if self.alias is not None:
            return self.alias
        assert self.attribute is not None
        return self.attribute

    def __str__(self) -> str:
        body = f"{self.function}({self.attribute or '*'})"
        if self.alias is not None and self.alias != self.attribute:
            return f"{body} as {self.alias}"
        return body


#: An attribute an operation reads, with the capability it needs of an
#: encrypted value of that attribute (``NONE``: none will do).
Demand = tuple[str, EncryptedCapability]


def _condition_demands(condition: Predicate) -> list[Demand]:
    demands: list[Demand] = []
    for basic in condition.basic_conditions():
        capability = basic.required_capability()
        for attribute in basic.attributes():
            demands.append((attribute, capability))
    return demands


def _comparison_groups(condition: Predicate) -> list[frozenset[str]]:
    """Each ``ai op aj`` compares its two sides in one representation."""
    return [basic.attributes() for basic in condition.basic_conditions()
            if isinstance(basic, AttributeComparisonPredicate)]


class PlanNode:
    """Base class of all plan nodes.  Nodes compare by identity."""

    __slots__ = ("children", "_demands", "_uniform_groups")

    children: tuple["PlanNode", ...]

    def __init__(self, children: Sequence["PlanNode"],
                 demands: Iterable[Demand] = (),
                 uniform_groups: Iterable[frozenset[str]] = ()) -> None:
        self.children = tuple(children)
        self._demands = tuple(demands)
        self._uniform_groups = tuple(uniform_groups)

    # -- structure -----------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        """Whether the node is a base relation."""
        return not self.children

    @property
    def left(self) -> "PlanNode":
        """First operand (for unary and binary operators)."""
        return self.children[0]

    @property
    def right(self) -> "PlanNode":
        """Second operand (binary operators only)."""
        return self.children[1]

    def with_children(self, children: Sequence["PlanNode"]) -> "PlanNode":
        """A copy of this node with new operands (for plan rewriting)."""
        raise NotImplementedError

    # -- semantics ------------------------------------------------------
    def output_profile(self, *child_profiles: RelationProfile) -> RelationProfile:
        """Figure 2 rule for this operator."""
        raise NotImplementedError

    def implicit_introduced(self) -> frozenset[str]:
        """Attributes this operation newly adds to the implicit component."""
        return frozenset()

    def demands(self) -> tuple[Demand, ...]:
        """What the operation reads of its operands, in evaluation order,
        each with the capability it needs of an encrypted value."""
        return self._demands

    def operand_attributes(self) -> frozenset[str]:
        """Attributes of the operands this operation reads."""
        return frozenset([attribute for attribute, _ in self.demands()])

    def uniform_groups(self) -> tuple[frozenset[str], ...]:
        """Attribute sets the operation needs all plaintext or all
        encrypted (§3.2)."""
        return self._uniform_groups

    def label(self) -> str:
        """Short human-readable operator label (paper notation)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{self.label()} at {id(self):#x}>"

    # -- shared validation helpers --------------------------------------
    @staticmethod
    def _check_visible(profile: RelationProfile, attributes: Iterable[str],
                       what: str) -> None:
        missing = frozenset(attributes) - profile.visible
        if missing:
            raise OperationRequirementError(
                f"{what} references attributes not in the operand schema: "
                f"{sorted(missing)}"
            )

    def _check_operands(self, profile: RelationProfile,
                        what: str) -> tuple[frozenset[str], ...]:
        """Check that the operation reads only visible attributes and that
        each of its uniform groups is in one representation; return the
        groups."""
        self._check_visible(profile, self.operand_attributes(), what)
        groups = self.uniform_groups()
        plain, encrypted = profile.visible_plaintext, profile.visible_encrypted
        for group in groups:
            if group & plain and group & encrypted:
                raise OperationRequirementError(
                    f"{what} needs {sorted(group)} all plaintext or all "
                    f"encrypted, not a mix"
                )
        return groups

    @staticmethod
    def _check_disjoint(left: RelationProfile,
                        right: RelationProfile) -> None:
        overlap = left.visible & right.visible
        if overlap:
            raise PlanError(f"operand schemas overlap on {sorted(overlap)}")


class BaseRelationNode(PlanNode):
    """A leaf of the plan: a (projection of a) stored base relation.

    Per §1, "we represent a leaf node as a square box that contains (the
    projection of) a source relation": classical optimization pushes
    projections down into the leaves, so a leaf may expose only a subset
    of the stored attributes.  Leaves have no assignee — they stay with
    the data authority holding the relation.
    """

    __slots__ = ("relation", "projection")

    def __init__(self, relation: Relation,
                 projection: Iterable[str] | None = None) -> None:
        super().__init__(())
        self.relation = relation
        if projection is None:
            self.projection = relation.attribute_set
        else:
            self.projection = frozenset(projection)
            unknown = self.projection - relation.attribute_set
            if unknown:
                raise PlanError(
                    f"leaf projection keeps unknown attributes "
                    f"{sorted(unknown)} of relation {relation.name}"
                )
            if not self.projection:
                raise PlanError("leaf projection must keep some attribute")

    def with_children(self, children: Sequence[PlanNode]) -> "BaseRelationNode":
        if children:
            raise PlanError("base relations have no operands")
        return BaseRelationNode(self.relation, self.projection)

    def output_profile(self, *child_profiles: RelationProfile) -> RelationProfile:
        if child_profiles:
            raise PlanError("base relations take no operand profiles")
        return RelationProfile.for_base_relation(self.projection)

    def label(self) -> str:
        kept = [a for a in self.relation.attribute_names if a in self.projection]
        prefix = ""
        if self.projection != self.relation.attribute_set:
            prefix = f"π[{','.join(kept)}] "
        return f"{prefix}{self.relation.name}({','.join(kept)})"


class Projection(PlanNode):
    """``π_A`` — keep only attributes ``A`` (Fig. 2 projection row)."""

    __slots__ = ("attributes",)

    def __init__(self, child: PlanNode, attributes: Iterable[str]) -> None:
        super().__init__((child,))
        self.attributes = frozenset(attributes)
        if not self.attributes:
            raise PlanError("projection must keep at least one attribute")

    def with_children(self, children: Sequence[PlanNode]) -> "Projection":
        (child,) = children
        return Projection(child, self.attributes)

    def output_profile(self, *child_profiles: RelationProfile) -> RelationProfile:
        (profile,) = child_profiles
        self._check_visible(profile, self.attributes, "projection")
        return profile.project(self.attributes)

    def label(self) -> str:
        return f"π[{','.join(sorted(self.attributes))}]"


class Selection(PlanNode):
    """``σ_condition`` — filter tuples (Fig. 2 selection rows).

    A condition ``a op x`` adds ``a`` to the implicit component; a
    condition ``ai op aj`` adds ``{ai, aj}`` to the equivalences.
    Conjunctions contribute each basic condition independently.
    """

    __slots__ = ("predicate",)

    def __init__(self, child: PlanNode, predicate: Predicate) -> None:
        if not isinstance(predicate, Predicate):
            raise PlanError(f"selection needs a Predicate, got {predicate!r}")
        super().__init__((child,), _condition_demands(predicate),
                         _comparison_groups(predicate))
        self.predicate = predicate

    def with_children(self, children: Sequence[PlanNode]) -> "Selection":
        (child,) = children
        return Selection(child, self.predicate)

    def output_profile(self, *child_profiles: RelationProfile) -> RelationProfile:
        (profile,) = child_profiles
        groups = self._check_operands(profile, "selection")
        introduced = self.implicit_introduced()
        result = profile.add_implicit(introduced) if introduced else profile
        for group in groups:
            result = result.add_equivalence(group)
        return result

    def implicit_introduced(self) -> frozenset[str]:
        return frozenset([
            basic.attribute for basic in self.predicate.basic_conditions()
            if isinstance(basic, AttributeValuePredicate)
        ])

    def label(self) -> str:
        return f"σ[{self.predicate}]"


class CartesianProduct(PlanNode):
    """``×`` — all combinations of the operands' tuples (Fig. 2 row)."""

    def __init__(self, left: PlanNode, right: PlanNode) -> None:
        super().__init__((left, right))

    def with_children(self, children: Sequence[PlanNode]) -> "CartesianProduct":
        left, right = children
        return CartesianProduct(left, right)

    def output_profile(self, *child_profiles: RelationProfile) -> RelationProfile:
        left, right = child_profiles
        self._check_disjoint(left, right)
        return left.combine(right)

    def label(self) -> str:
        return "×"


class Join(PlanNode):
    """``⋈_C`` — join on a Boolean formula of ``ai op aj`` conditions.

    Equivalent to ``σ_C(Rl × Rr)`` (Fig. 2 join row): the result profile
    is the componentwise union of the operand profiles, plus one
    equivalence class per basic condition.
    """

    __slots__ = ("condition",)

    def __init__(self, left: PlanNode, right: PlanNode,
                 condition: Predicate) -> None:
        basics = list(condition.basic_conditions())
        if not basics or not all(
            isinstance(b, AttributeComparisonPredicate) for b in basics
        ):
            raise PlanError(
                "join conditions must be formulas of attribute comparisons"
            )
        super().__init__((left, right), _condition_demands(condition),
                         _comparison_groups(condition))
        self.condition = condition

    def with_children(self, children: Sequence[PlanNode]) -> "Join":
        left, right = children
        return Join(left, right, self.condition)

    def output_profile(self, *child_profiles: RelationProfile) -> RelationProfile:
        left, right = child_profiles
        self._check_disjoint(left, right)
        result = left.combine(right)
        for group in self._check_operands(result, "join"):
            result = result.add_equivalence(group)
        return result

    def partition_condition(
        self, left_columns: Iterable[str], right_columns: Iterable[str],
    ) -> tuple[list[tuple[str, str]],
               list[AttributeComparisonPredicate]]:
        """Split the condition for hash-partitioned execution.

        Returns ``(equalities, residual)``: every equality conjunct that
        bridges the two operands becomes an ``(left_attr, right_attr)``
        pair the executor can build/probe a hash table on; everything
        else (non-equality operators, or comparisons confined to one
        operand) is a residual conjunct to test per matched pair.
        """
        left_set = frozenset(left_columns)
        right_set = frozenset(right_columns)
        equalities: list[tuple[str, str]] = []
        residual: list[AttributeComparisonPredicate] = []
        for basic in self.condition.basic_conditions():
            assert isinstance(basic, AttributeComparisonPredicate)
            if basic.op is ComparisonOp.EQ:
                left_attr, right_attr = basic.left, basic.right
                if left_attr in right_set and right_attr in left_set:
                    left_attr, right_attr = right_attr, left_attr
                if left_attr in left_set and right_attr in right_set:
                    equalities.append((left_attr, right_attr))
                    continue
            residual.append(basic)
        return equalities, residual

    def label(self) -> str:
        return f"⋈[{self.condition}]"


class GroupBy(PlanNode):
    """``γ_{A, f(a)}`` — group on ``A`` and aggregate (Fig. 2 row).

    The visible attributes of the result are ``A`` plus one output per
    aggregate (named after the aggregated attribute, or its alias); the
    grouping attributes are added to the implicit component in the form
    they are visible in the operand.  Multiple aggregates apply the
    Figure 2 rule per aggregate; aliased outputs join their source
    attribute's equivalence class (their values derive from it).
    """

    __slots__ = ("group_attributes", "aggregates")

    def __init__(self, child: PlanNode, group_attributes: Iterable[str],
                 aggregates: Aggregate | Sequence[Aggregate]) -> None:
        self.group_attributes = frozenset(group_attributes)
        if isinstance(aggregates, Aggregate):
            aggregates = (aggregates,)
        self.aggregates = tuple(aggregates)
        if not self.aggregates:
            raise PlanError("group-by needs at least one aggregate")
        outputs: set[str] = set()
        for aggregate in self.aggregates:
            name = aggregate.output_name
            if name in self.group_attributes and aggregate.alias is not None:
                raise PlanError(
                    f"aggregate alias {name!r} collides with a grouping "
                    f"attribute"
                )
            if name in outputs:
                raise PlanError(
                    f"two aggregates produce the same output {name!r}; "
                    f"use aliases"
                )
            outputs.add(name)
            if aggregate.attribute is not None \
                    and aggregate.attribute in self.group_attributes:
                raise PlanError(
                    f"aggregate attribute {aggregate.attribute!r} also "
                    f"appears in the grouping attributes"
                )
        demands = [(attribute, EncryptedCapability.EQUALITY)
                   for attribute in self.group_attributes]
        demands += [(a.attribute, _AGGREGATE_CAPABILITY[a.function])
                    for a in self.aggregates if a.attribute is not None]
        super().__init__((child,), demands)

    def with_children(self, children: Sequence[PlanNode]) -> "GroupBy":
        (child,) = children
        return GroupBy(child, self.group_attributes, self.aggregates)

    def output_profile(self, *child_profiles: RelationProfile) -> RelationProfile:
        (profile,) = child_profiles
        self._check_operands(profile, "group-by")
        visible_plaintext = set(profile.visible_plaintext
                                & self.group_attributes)
        visible_encrypted = set(profile.visible_encrypted
                                & self.group_attributes)
        equivalences = profile.equivalences
        for aggregate in self.aggregates:
            name = aggregate.output_name
            if aggregate.attribute is None:
                # count(*): a fresh plaintext counter with no lineage.
                visible_plaintext.add(name)
                continue
            if aggregate.attribute in profile.visible_encrypted:
                visible_encrypted.add(name)
            else:
                visible_plaintext.add(name)
            if name != aggregate.attribute:
                equivalences = equivalences.union_set(
                    {aggregate.attribute, name}
                )
        return RelationProfile(
            visible_plaintext=frozenset(visible_plaintext),
            visible_encrypted=frozenset(visible_encrypted),
            implicit_plaintext=profile.implicit_plaintext
            | (profile.visible_plaintext & self.group_attributes),
            implicit_encrypted=profile.implicit_encrypted
            | (profile.visible_encrypted & self.group_attributes),
            equivalences=equivalences,
        )

    def implicit_introduced(self) -> frozenset[str]:
        return self.group_attributes

    def label(self) -> str:
        group = ",".join(sorted(self.group_attributes))
        aggs = ", ".join(str(a) for a in self.aggregates)
        return f"γ[{group}; {aggs}]"


class Udf(PlanNode):
    """``µ_{A,a}`` — user-defined function over attributes ``A`` (Fig. 2 row).

    The output attribute keeps the name of one of the inputs (``a ∈ A``);
    the inputs are connected in the equivalence component because the
    output value depends on all of them.

    ``encrypted_capable`` declares whether an encrypted-execution variant
    of the function exists (§5: operations "not supported by cryptographic
    techniques" require their inputs in plaintext).
    """

    __slots__ = ("inputs", "output", "encrypted_capable", "name")

    def __init__(self, child: PlanNode, inputs: Iterable[str], output: str,
                 encrypted_capable: bool = False,
                 name: str = "udf") -> None:
        self.inputs = frozenset(inputs)
        self.output = output
        self.encrypted_capable = encrypted_capable
        self.name = name
        if output not in self.inputs:
            raise PlanError(
                f"udf output {output!r} must be named after one of its "
                f"inputs {sorted(self.inputs)}"
            )
        # An encrypted-execution variant is assumed deterministic.
        capability = (EncryptedCapability.EQUALITY if encrypted_capable
                      else EncryptedCapability.NONE)
        super().__init__((child,),
                         [(attribute, capability) for attribute in self.inputs],
                         (self.inputs,))

    def with_children(self, children: Sequence[PlanNode]) -> "Udf":
        (child,) = children
        return Udf(child, self.inputs, self.output, self.encrypted_capable,
                   self.name)

    def output_profile(self, *child_profiles: RelationProfile) -> RelationProfile:
        (profile,) = child_profiles
        self._check_operands(profile, "udf")
        consumed = self.inputs - {self.output}
        return RelationProfile(
            visible_plaintext=profile.visible_plaintext - consumed,
            visible_encrypted=profile.visible_encrypted - consumed,
            implicit_plaintext=profile.implicit_plaintext,
            implicit_encrypted=profile.implicit_encrypted,
            equivalences=profile.equivalences.union_set(self.inputs),
        )

    def label(self) -> str:
        return f"µ:{self.name}[{','.join(sorted(self.inputs))}→{self.output}]"


class Encrypt(PlanNode):
    """On-the-fly encryption of visible plaintext attributes (§5)."""

    __slots__ = ("attributes",)

    def __init__(self, child: PlanNode, attributes: Iterable[str]) -> None:
        super().__init__((child,))
        self.attributes = frozenset(attributes)
        if not self.attributes:
            raise PlanError("encryption must cover at least one attribute")

    def with_children(self, children: Sequence[PlanNode]) -> "Encrypt":
        (child,) = children
        return Encrypt(child, self.attributes)

    def output_profile(self, *child_profiles: RelationProfile) -> RelationProfile:
        (profile,) = child_profiles
        return profile.encrypt(self.attributes)

    def label(self) -> str:
        return f"enc[{','.join(sorted(self.attributes))}]"


class Decrypt(PlanNode):
    """On-the-fly decryption of visible encrypted attributes (§5)."""

    __slots__ = ("attributes",)

    def __init__(self, child: PlanNode, attributes: Iterable[str]) -> None:
        super().__init__((child,))
        self.attributes = frozenset(attributes)
        if not self.attributes:
            raise PlanError("decryption must cover at least one attribute")

    def with_children(self, children: Sequence[PlanNode]) -> "Decrypt":
        (child,) = children
        return Decrypt(child, self.attributes)

    def output_profile(self, *child_profiles: RelationProfile) -> RelationProfile:
        (profile,) = child_profiles
        return profile.decrypt(self.attributes)

    def label(self) -> str:
        return f"dec[{','.join(sorted(self.attributes))}]"
