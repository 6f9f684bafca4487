"""Relation profiles (Definition 3.1).

A profile is the 5-tuple ``[Rvp, Rve, Rip, Rie, R≃]`` capturing the
informative content of a base or derived relation:

* ``Rvp`` / ``Rve`` — attributes *visible* in the relation schema, in
  plaintext / encrypted form;
* ``Rip`` / ``Rie`` — attributes *implicitly* conveyed by the relation
  (used in selections, group-by, ...), in plaintext / encrypted form;
* ``R≃`` — the closure of the equivalence relationship among attributes
  connected by conditions in the relation's computation.

Profiles are immutable values; the per-operator propagation rules of
Figure 2 live on the plan-node classes in :mod:`repro.core.operators` and
are expressed through the small algebra of methods offered here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.equivalence import EquivalenceClasses
from repro.exceptions import ProfileError


@dataclass(frozen=True)
class RelationProfile:
    """The informative content of a relation (Definition 3.1).

    Examples
    --------
    The profile of a base relation has only visible plaintext attributes:

    >>> p = RelationProfile.for_base_relation(["S", "B", "D", "T"])
    >>> sorted(p.visible_plaintext)
    ['B', 'D', 'S', 'T']
    >>> p.implicit_plaintext
    frozenset()
    """

    visible_plaintext: frozenset[str] = frozenset()
    visible_encrypted: frozenset[str] = frozenset()
    implicit_plaintext: frozenset[str] = frozenset()
    implicit_encrypted: frozenset[str] = frozenset()
    equivalences: EquivalenceClasses = field(default_factory=EquivalenceClasses.empty)

    def __post_init__(self) -> None:
        overlap = self.visible_plaintext & self.visible_encrypted
        if overlap:
            raise ProfileError(
                f"attributes visible both plaintext and encrypted: {sorted(overlap)}"
            )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def for_base_relation(cls, attributes: Iterable[str]) -> "RelationProfile":
        """Profile of a base relation: all attributes visible plaintext.

        Per §3.2, a base relation's profile "has all the elements but Rvp
        empty since it is assumed accessible in plaintext and does not
        carry any implicit content or equivalence relationship".
        """
        return cls(visible_plaintext=frozenset(attributes))

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def visible(self) -> frozenset[str]:
        """All attributes in the relation schema (``Rvp ∪ Rve``)."""
        return self.visible_plaintext | self.visible_encrypted

    @property
    def implicit(self) -> frozenset[str]:
        """All implicitly conveyed attributes (``Rip ∪ Rie``)."""
        return self.implicit_plaintext | self.implicit_encrypted

    @property
    def plaintext(self) -> frozenset[str]:
        """All attributes carried in plaintext form, visible or implicit."""
        return self.visible_plaintext | self.implicit_plaintext

    @property
    def encrypted(self) -> frozenset[str]:
        """All attributes carried in encrypted form, visible or implicit."""
        return self.visible_encrypted | self.implicit_encrypted

    def all_attributes(self) -> frozenset[str]:
        """Every attribute the profile mentions, including equivalence members.

        This is the attribute universe used by Theorem 3.1(i).
        """
        return self.visible | self.implicit | self.equivalences.members()

    def masks(self, universe) -> "object":
        """Bitmask fast path: this profile interned into ``universe``.

        ``universe`` is an
        :class:`~repro.core.attrsets.AttributeUniverse`; returns the
        :class:`~repro.core.attrsets.MaskProfile`, on which
        Definition 4.1/4.2 checks and the Figure 2 algebra are integer
        operations.
        """
        return universe.profile_masks(self)

    # ------------------------------------------------------------------
    # Profile algebra used by the Figure 2 rules
    # ------------------------------------------------------------------
    def project(self, attributes: Iterable[str]) -> "RelationProfile":
        """Fig. 2 projection row: keep only ``attributes`` visible."""
        keep = frozenset(attributes)
        missing = keep - self.visible
        if missing:
            raise ProfileError(
                f"projection on attributes not in schema: {sorted(missing)}"
            )
        return RelationProfile(
            visible_plaintext=self.visible_plaintext & keep,
            visible_encrypted=self.visible_encrypted & keep,
            implicit_plaintext=self.implicit_plaintext,
            implicit_encrypted=self.implicit_encrypted,
            equivalences=self.equivalences,
        )

    def add_implicit(self, attributes: Iterable[str]) -> "RelationProfile":
        """Move ``attributes`` into the implicit component.

        Each attribute joins ``Rip`` or ``Rie`` according to the form in
        which it is currently visible (Fig. 2 selection/group-by rows).
        """
        added = frozenset(attributes)
        unknown = added - self.visible
        if unknown:
            raise ProfileError(
                f"cannot mark non-visible attributes implicit: {sorted(unknown)}"
            )
        return RelationProfile(
            visible_plaintext=self.visible_plaintext,
            visible_encrypted=self.visible_encrypted,
            implicit_plaintext=self.implicit_plaintext
            | (self.visible_plaintext & added),
            implicit_encrypted=self.implicit_encrypted
            | (self.visible_encrypted & added),
            equivalences=self.equivalences,
        )

    def add_equivalence(self, attributes: Iterable[str]) -> "RelationProfile":
        """Insert an equivalence class (``R≃ ∪ A`` in the paper)."""
        return RelationProfile(
            visible_plaintext=self.visible_plaintext,
            visible_encrypted=self.visible_encrypted,
            implicit_plaintext=self.implicit_plaintext,
            implicit_encrypted=self.implicit_encrypted,
            equivalences=self.equivalences.union_set(attributes),
        )

    def combine(self, other: "RelationProfile") -> "RelationProfile":
        """Fig. 2 cartesian-product row: componentwise union."""
        return RelationProfile(
            visible_plaintext=self.visible_plaintext | other.visible_plaintext,
            visible_encrypted=self.visible_encrypted | other.visible_encrypted,
            implicit_plaintext=self.implicit_plaintext | other.implicit_plaintext,
            implicit_encrypted=self.implicit_encrypted | other.implicit_encrypted,
            equivalences=self.equivalences.merge(other.equivalences),
        )

    def encrypt(self, attributes: Iterable[str]) -> "RelationProfile":
        """Fig. 2 encryption row: move visible plaintext → visible encrypted."""
        moved = frozenset(attributes)
        missing = moved - self.visible_plaintext
        if missing:
            raise ProfileError(
                f"cannot encrypt attributes not visible plaintext: {sorted(missing)}"
            )
        return RelationProfile(
            visible_plaintext=self.visible_plaintext - moved,
            visible_encrypted=self.visible_encrypted | moved,
            implicit_plaintext=self.implicit_plaintext,
            implicit_encrypted=self.implicit_encrypted,
            equivalences=self.equivalences,
        )

    def decrypt(self, attributes: Iterable[str]) -> "RelationProfile":
        """Fig. 2 decryption row: move visible encrypted → visible plaintext."""
        moved = frozenset(attributes)
        missing = moved - self.visible_encrypted
        if missing:
            raise ProfileError(
                f"cannot decrypt attributes not visible encrypted: {sorted(missing)}"
            )
        return RelationProfile(
            visible_plaintext=self.visible_plaintext | moved,
            visible_encrypted=self.visible_encrypted - moved,
            implicit_plaintext=self.implicit_plaintext,
            implicit_encrypted=self.implicit_encrypted,
            equivalences=self.equivalences,
        )

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Render the profile in the paper's ``v:/i:/≃:`` tag notation.

        Encrypted attributes are suffixed with ``*`` (the paper renders
        them on a gray background, which plain text cannot).
        """

        def fmt(plain: frozenset[str], enc: frozenset[str]) -> str:
            parts = sorted(plain) + [f"{a}*" for a in sorted(enc)]
            return "".join(parts) if parts else "-"

        eq = (
            ", ".join(
                "{" + ",".join(sorted(c)) + "}"
                for c in sorted(self.equivalences, key=lambda c: sorted(c))
            )
            or "-"
        )
        visible = fmt(self.visible_plaintext, self.visible_encrypted)
        implicit = fmt(self.implicit_plaintext, self.implicit_encrypted)
        return f"v:{visible} i:{implicit} ≃:{eq}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()
