"""Query-plan nodes and the profile-propagation rules of Figure 2.

A query plan is a tree whose leaves are base relations and whose internal
nodes are relational operations (§1).  Each node class implements:

* ``output_attributes`` — the visible schema of the produced relation;
* ``output_profile`` — the Figure 2 rule computing the result profile from
  the operand profiles;
* ``implicit_introduced`` — the attributes the operation newly moves into
  the implicit component (used by Definition 5.4(ii));
* ``equivalences_introduced`` — the attribute sets the operation connects
  (used for key establishment and by Definition 5.4).

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

    def required_capability(self) -> EncryptedCapability:
        """Scheme capability needed to aggregate encrypted values."""
        return _AGGREGATE_CAPABILITY[self.function]

    def __str__(self) -> str:
        body = f"{self.function}({self.attribute or '*'})"
        if self.alias is not None and self.alias != self.attribute:
            return f"{body} as {self.alias}"
        return body


class PlanNode:
    """Base class of all plan nodes.  Nodes compare by identity."""

    __slots__ = ("children",)

    children: tuple["PlanNode", ...]

    def __init__(self, children: Sequence["PlanNode"]) -> None:
        self.children = tuple(children)

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
    def output_attributes(self, *child_attrs: frozenset[str]) -> frozenset[str]:
        """Visible schema of the produced relation."""
        raise NotImplementedError

    def output_profile(self, *child_profiles: RelationProfile) -> RelationProfile:
        """Figure 2 rule for this operator."""
        raise NotImplementedError

    def implicit_introduced(self) -> frozenset[str]:
        """Attributes this operation newly adds to the implicit component."""
        return frozenset()

    def equivalences_introduced(self) -> tuple[frozenset[str], ...]:
        """Attribute sets this operation connects in ``R≃``."""
        return ()

    def operand_attributes(self) -> frozenset[str]:
        """Attributes of the operands this operation reads."""
        return frozenset()

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

    @staticmethod
    def _check_uniform_form(profile: RelationProfile, first: str,
                            second: str) -> None:
        """Comparisons need both attributes plaintext or both encrypted."""
        plain = profile.visible_plaintext
        enc = profile.visible_encrypted
        if not ((first in plain and second in plain)
                or (first in enc and second in enc)):
            raise OperationRequirementError(
                f"condition compares {first} and {second} in different "
                f"representations (one plaintext, one encrypted)"
            )


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

    def output_attributes(self, *child_attrs: frozenset[str]) -> frozenset[str]:
        return self.projection

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

    def output_attributes(self, *child_attrs: frozenset[str]) -> frozenset[str]:
        (attrs,) = child_attrs
        missing = self.attributes - attrs
        if missing:
            raise OperationRequirementError(
                f"projection keeps unknown attributes {sorted(missing)}"
            )
        return self.attributes

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
        super().__init__((child,))
        if not isinstance(predicate, Predicate):
            raise PlanError(f"selection needs a Predicate, got {predicate!r}")
        self.predicate = predicate

    def with_children(self, children: Sequence[PlanNode]) -> "Selection":
        (child,) = children
        return Selection(child, self.predicate)

    def output_attributes(self, *child_attrs: frozenset[str]) -> frozenset[str]:
        (attrs,) = child_attrs
        missing = self.predicate.attributes() - attrs
        if missing:
            raise OperationRequirementError(
                f"selection references unknown attributes {sorted(missing)}"
            )
        return attrs

    def output_profile(self, *child_profiles: RelationProfile) -> RelationProfile:
        (profile,) = child_profiles
        self._check_visible(profile, self.predicate.attributes(), "selection")
        result = profile
        for basic in self.predicate.basic_conditions():
            if isinstance(basic, AttributeValuePredicate):
                result = result.add_implicit({basic.attribute})
            elif isinstance(basic, AttributeComparisonPredicate):
                self._check_uniform_form(profile, basic.left, basic.right)
                result = result.add_equivalence({basic.left, basic.right})
            else:  # pragma: no cover - Conjunction flattens its members
                raise PlanError(f"unsupported basic condition {basic!r}")
        return result

    def implicit_introduced(self) -> frozenset[str]:
        introduced: set[str] = set()
        for basic in self.predicate.basic_conditions():
            if isinstance(basic, AttributeValuePredicate):
                introduced.add(basic.attribute)
        return frozenset(introduced)

    def equivalences_introduced(self) -> tuple[frozenset[str], ...]:
        return tuple(
            basic.attributes()
            for basic in self.predicate.basic_conditions()
            if isinstance(basic, AttributeComparisonPredicate)
        )

    def operand_attributes(self) -> frozenset[str]:
        return self.predicate.attributes()

    def label(self) -> str:
        return f"σ[{self.predicate}]"


class CartesianProduct(PlanNode):
    """``×`` — all combinations of the operands' tuples (Fig. 2 row)."""

    def __init__(self, left: PlanNode, right: PlanNode) -> None:
        super().__init__((left, right))

    def with_children(self, children: Sequence[PlanNode]) -> "CartesianProduct":
        left, right = children
        return CartesianProduct(left, right)

    def output_attributes(self, *child_attrs: frozenset[str]) -> frozenset[str]:
        left, right = child_attrs
        if left & right:
            raise PlanError(
                f"operand schemas overlap on {sorted(left & right)}"
            )
        return left | right

    def output_profile(self, *child_profiles: RelationProfile) -> RelationProfile:
        left, right = child_profiles
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
        super().__init__((left, right))
        basics = list(condition.basic_conditions())
        if not basics or not all(
            isinstance(b, AttributeComparisonPredicate) for b in basics
        ):
            raise PlanError(
                "join conditions must be formulas of attribute comparisons"
            )
        self.condition = condition

    def with_children(self, children: Sequence[PlanNode]) -> "Join":
        left, right = children
        return Join(left, right, self.condition)

    def output_attributes(self, *child_attrs: frozenset[str]) -> frozenset[str]:
        left, right = child_attrs
        if left & right:
            raise PlanError(
                f"operand schemas overlap on {sorted(left & right)}"
            )
        missing = self.condition.attributes() - (left | right)
        if missing:
            raise OperationRequirementError(
                f"join condition references unknown attributes {sorted(missing)}"
            )
        return left | right

    def output_profile(self, *child_profiles: RelationProfile) -> RelationProfile:
        left, right = child_profiles
        combined = left.combine(right)
        self._check_visible(combined, self.condition.attributes(), "join")
        result = combined
        for basic in self.condition.basic_conditions():
            assert isinstance(basic, AttributeComparisonPredicate)
            self._check_uniform_form(combined, basic.left, basic.right)
            result = result.add_equivalence({basic.left, basic.right})
        return result

    def equivalences_introduced(self) -> tuple[frozenset[str], ...]:
        return tuple(
            basic.attributes() for basic in self.condition.basic_conditions()
        )

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

    def operand_attributes(self) -> frozenset[str]:
        return self.condition.attributes()

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
        super().__init__((child,))
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

    def with_children(self, children: Sequence[PlanNode]) -> "GroupBy":
        (child,) = children
        return GroupBy(child, self.group_attributes, self.aggregates)

    def _sources(self) -> frozenset[str]:
        """Operand attributes the operation reads."""
        sources = set(self.group_attributes)
        for aggregate in self.aggregates:
            if aggregate.attribute is not None:
                sources.add(aggregate.attribute)
        return frozenset(sources)

    def _outputs(self) -> frozenset[str]:
        return self.group_attributes | {
            a.output_name for a in self.aggregates
        }

    def output_attributes(self, *child_attrs: frozenset[str]) -> frozenset[str]:
        (attrs,) = child_attrs
        missing = self._sources() - attrs
        if missing:
            raise OperationRequirementError(
                f"group-by references unknown attributes {sorted(missing)}"
            )
        return self._outputs()

    def output_profile(self, *child_profiles: RelationProfile) -> RelationProfile:
        (profile,) = child_profiles
        self._check_visible(profile, self._sources(), "group-by")
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

    def equivalences_introduced(self) -> tuple[frozenset[str], ...]:
        return tuple(
            frozenset({a.attribute, a.output_name})
            for a in self.aggregates
            if a.attribute is not None and a.output_name != a.attribute
        )

    def operand_attributes(self) -> frozenset[str]:
        return self._sources()

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
        super().__init__((child,))
        self.inputs = frozenset(inputs)
        self.output = output
        self.encrypted_capable = encrypted_capable
        self.name = name
        if output not in self.inputs:
            raise PlanError(
                f"udf output {output!r} must be named after one of its "
                f"inputs {sorted(self.inputs)}"
            )

    def with_children(self, children: Sequence[PlanNode]) -> "Udf":
        (child,) = children
        return Udf(child, self.inputs, self.output, self.encrypted_capable,
                   self.name)

    def output_attributes(self, *child_attrs: frozenset[str]) -> frozenset[str]:
        (attrs,) = child_attrs
        missing = self.inputs - attrs
        if missing:
            raise OperationRequirementError(
                f"udf references unknown attributes {sorted(missing)}"
            )
        return attrs - (self.inputs - {self.output})

    def output_profile(self, *child_profiles: RelationProfile) -> RelationProfile:
        (profile,) = child_profiles
        self._check_visible(profile, self.inputs, "udf")
        consumed = self.inputs - {self.output}
        # The inputs must be all plaintext or all encrypted (§3.2).
        plain = self.inputs & profile.visible_plaintext
        if plain and plain != self.inputs:
            raise OperationRequirementError(
                f"udf inputs {sorted(self.inputs)} mix plaintext and "
                f"encrypted attributes"
            )
        return RelationProfile(
            visible_plaintext=profile.visible_plaintext - consumed,
            visible_encrypted=profile.visible_encrypted - consumed,
            implicit_plaintext=profile.implicit_plaintext,
            implicit_encrypted=profile.implicit_encrypted,
            equivalences=profile.equivalences.union_set(self.inputs),
        )

    def equivalences_introduced(self) -> tuple[frozenset[str], ...]:
        if len(self.inputs) > 1:
            return (self.inputs,)
        return ()

    def operand_attributes(self) -> frozenset[str]:
        return self.inputs

    def required_capability(self) -> EncryptedCapability:
        if self.encrypted_capable:
            return EncryptedCapability.EQUALITY
        return EncryptedCapability.NONE

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

    def output_attributes(self, *child_attrs: frozenset[str]) -> frozenset[str]:
        (attrs,) = child_attrs
        missing = self.attributes - attrs
        if missing:
            raise OperationRequirementError(
                f"encryption of unknown attributes {sorted(missing)}"
            )
        return attrs

    def output_profile(self, *child_profiles: RelationProfile) -> RelationProfile:
        (profile,) = child_profiles
        return profile.encrypt(self.attributes)

    def operand_attributes(self) -> frozenset[str]:
        return self.attributes

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

    def output_attributes(self, *child_attrs: frozenset[str]) -> frozenset[str]:
        (attrs,) = child_attrs
        missing = self.attributes - attrs
        if missing:
            raise OperationRequirementError(
                f"decryption of unknown attributes {sorted(missing)}"
            )
        return attrs

    def output_profile(self, *child_profiles: RelationProfile) -> RelationProfile:
        (profile,) = child_profiles
        return profile.decrypt(self.attributes)

    def operand_attributes(self) -> frozenset[str]:
        return self.attributes

    def label(self) -> str:
        return f"dec[{','.join(sorted(self.attributes))}]"
