"""Relations, attributes, and database schemas.

The paper works with globally named attributes (``S``, ``B``, ``D`` ... in
the running example; ``l_quantity`` ... in TPC-H).  An attribute is therefore
represented as a plain string, and a :class:`Relation` is an ordered list of
attribute names together with optional type and statistics metadata used by
the cost estimator.

A :class:`Schema` groups the relations visible to a query and enforces the
paper's convention that attribute names are globally unique across relations
(§3 treats ``S`` of Hosp and ``C`` of Ins as distinct names related only
through explicit conditions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.exceptions import SchemaError

# Attribute data types understood by the engine and the cost estimator.
INTEGER = "integer"
DECIMAL = "decimal"
VARCHAR = "varchar"
DATE = "date"

_VALID_TYPES = frozenset({INTEGER, DECIMAL, VARCHAR, DATE})

#: Default plaintext width, in bytes, charged per attribute type.
TYPE_WIDTH_BYTES: Mapping[str, int] = {
    INTEGER: 4,
    DECIMAL: 8,
    VARCHAR: 32,
    DATE: 4,
}


@dataclass(frozen=True)
class AttributeSpec:
    """Metadata for a single attribute of a relation.

    Attributes
    ----------
    name:
        Globally unique attribute name.
    data_type:
        One of :data:`INTEGER`, :data:`DECIMAL`, :data:`VARCHAR`,
        :data:`DATE`.
    width:
        Plaintext width in bytes; defaults to the per-type width.
    distinct_fraction:
        Estimated number of distinct values as a fraction of the relation
        cardinality, in ``(0, 1]``.  Used by the cardinality estimator.
    """

    name: str
    data_type: str = VARCHAR
    width: int = 0
    distinct_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError(f"invalid attribute name: {self.name!r}")
        if self.data_type not in _VALID_TYPES:
            raise SchemaError(
                f"unknown data type {self.data_type!r} for attribute {self.name}"
            )
        if self.width < 0:
            raise SchemaError(f"negative width for attribute {self.name}")
        if not 0.0 < self.distinct_fraction <= 1.0:
            raise SchemaError(
                f"distinct_fraction for {self.name} must be in (0, 1], "
                f"got {self.distinct_fraction}"
            )
        if self.width == 0:
            object.__setattr__(self, "width", TYPE_WIDTH_BYTES[self.data_type])


class Relation:
    """A named base relation with an ordered list of attributes.

    Parameters
    ----------
    name:
        Relation name, e.g. ``"Hosp"``.
    attributes:
        Iterable of attribute names (strings) or :class:`AttributeSpec`
        instances; plain names get default metadata.
    cardinality:
        Estimated (or actual) number of tuples, used by the cost model.

    Examples
    --------
    >>> hosp = Relation("Hosp", ["S", "B", "D", "T"])
    >>> hosp.attribute_names
    ('S', 'B', 'D', 'T')
    """

    __slots__ = ("name", "_specs", "_by_name", "cardinality")

    def __init__(self, name: str,
                 attributes: Iterable[str | AttributeSpec],
                 cardinality: int = 1000) -> None:
        if not name:
            raise SchemaError("relation name must be non-empty")
        if cardinality < 0:
            raise SchemaError(f"negative cardinality for relation {name}")
        self.name = name
        specs: list[AttributeSpec] = []
        for attribute in attributes:
            if isinstance(attribute, AttributeSpec):
                specs.append(attribute)
            else:
                specs.append(AttributeSpec(attribute))
        if not specs:
            raise SchemaError(f"relation {name} has no attributes")
        self._specs = tuple(specs)
        self._by_name = {spec.name: spec for spec in specs}
        if len(self._by_name) != len(specs):
            raise SchemaError(f"duplicate attribute names in relation {name}")
        self.cardinality = cardinality

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Attribute names in declaration order."""
        return tuple(spec.name for spec in self._specs)

    @property
    def attribute_set(self) -> frozenset[str]:
        """Attribute names as a frozen set."""
        return frozenset(self._by_name)

    def spec(self, attribute: str) -> AttributeSpec:
        """Return the :class:`AttributeSpec` for ``attribute``."""
        try:
            return self._by_name[attribute]
        except KeyError:
            raise SchemaError(
                f"relation {self.name} has no attribute {attribute!r}"
            ) from None

    def __contains__(self, attribute: object) -> bool:
        return attribute in self._by_name

    def __iter__(self) -> Iterator[str]:
        return iter(self.attribute_names)

    def __len__(self) -> int:
        return len(self._specs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.name == other.name and self._specs == other._specs

    def __hash__(self) -> int:
        return hash((self.name, self._specs))

    def __repr__(self) -> str:
        attrs = ", ".join(self.attribute_names)
        return f"Relation({self.name}: {attrs})"



@dataclass
class Schema:
    """The set of base relations available to queries.

    Enforces global uniqueness of attribute names across relations, which
    the paper assumes throughout (profiles are sets of bare attribute
    names).
    """

    relations: dict[str, Relation] = field(default_factory=dict)

    def add(self, relation: Relation) -> Relation:
        """Register ``relation``; raises :class:`SchemaError` on clashes."""
        if relation.name in self.relations:
            raise SchemaError(f"duplicate relation name {relation.name!r}")
        owned = self.attribute_owner_map()
        for attribute in relation.attribute_names:
            if attribute in owned:
                raise SchemaError(
                    f"attribute {attribute!r} of {relation.name} clashes with "
                    f"relation {owned[attribute]}"
                )
        self.relations[relation.name] = relation
        return relation

    def relation(self, name: str) -> Relation:
        """Look up a relation by name."""
        try:
            return self.relations[name]
        except KeyError:
            raise SchemaError(f"unknown relation {name!r}") from None

    def relation_of(self, attribute: str) -> Relation:
        """Return the relation owning ``attribute``."""
        for relation in self.relations.values():
            if attribute in relation:
                return relation
        raise SchemaError(f"no relation owns attribute {attribute!r}")

    def attribute_owner_map(self) -> dict[str, str]:
        """Map every attribute name to its owning relation name."""
        owners: dict[str, str] = {}
        for relation in self.relations.values():
            for attribute in relation.attribute_names:
                owners[attribute] = relation.name
        return owners

    def all_attributes(self) -> frozenset[str]:
        """All attribute names across all relations."""
        return frozenset(self.attribute_owner_map())

    def __contains__(self, name: object) -> bool:
        return name in self.relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self.relations.values())

    def __len__(self) -> int:
        return len(self.relations)
