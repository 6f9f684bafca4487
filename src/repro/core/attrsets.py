"""Interned attribute bitsets: the planner's visibility kernel.

The authorization planner evaluates Definition 4.1/4.2 checks and the
minimum-view algebra millions of times on hot multi-provider workloads.
Doing that with ``frozenset`` objects allocates and hashes attribute
strings on every check.  This module interns each attribute name of a
planning session into one bit of a Python :class:`int` so that every
set-algebra step of the paper's model becomes a handful of integer
AND/OR/subset operations:

* :class:`AttributeUniverse` — the interning table.  Each distinct
  attribute name is assigned one bit, lazily, for the lifetime of the
  universe; a ``frozenset[str]`` maps to the OR of its members' bits.
  It converts the model's value types
  (:class:`~repro.core.profile.RelationProfile`,
  :class:`~repro.core.authorization.SubjectView`) on every call, and
  memoises :class:`~repro.core.equivalence.EquivalenceClasses`, which
  profiles share.
* :class:`MaskProfile` — a relation profile ``[Rvp, Rve, Rip, Rie, R≃]``
  with every component an ``int`` bitmask (``R≃`` a tuple of masks).  Of
  the Figure 2 algebra it carries the one row the planner applies to
  masks, ``decrypt``, with the error behaviour of ``RelationProfile``'s
  (asserted by ``tests/properties/test_planner_kernel.py``); operators
  and the extension use ``RelationProfile``'s algebra.
* :class:`MaskView` — a subject's overall view ``P_S`` / ``E_S`` as two
  masks.
* :func:`relation_authorized` / :func:`assignee_authorized` —
  Definitions 4.1 and 4.2, the one statement of them in the package:
  condition 1 is ``(vp | ip) & ~P == 0``, condition 2 is
  ``(ve | ie) & ~(P | E) == 0``, and condition 3 checks each equivalence
  class mask against ``P`` and ``E``.  The planner (candidates,
  authorized assignees, the user's result), ``verify_assignment`` and
  the run-time ``check_profile`` all read them.  The verdict allocates
  nothing; only after a ``False`` does :func:`relation_violations` /
  :func:`assignee_violations` render why, mapping the failing masks back
  to names.  The literal statement over frozensets is the test oracle,
  ``tests/oracles/authorization_literal.py``, and a property there holds
  verdicts and reasons equal.

Interning scheme
----------------
Bits are allocated first-come-first-served and never reassigned, so a
mask created early stays valid as the universe grows.  Masks from
different universes must never be mixed (a :class:`MaskProfile` carries
its universe and compares unequal across them).  A universe is
cheap (two dicts and a list); planners create one per planning session
(or per plan) and throw it away, which also bounds the memoised
conversions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.exceptions import ProfileError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.authorization import SubjectView
    from repro.core.equivalence import EquivalenceClasses
    from repro.core.profile import RelationProfile


class MaskView:
    """A subject's overall view ``P_S`` / ``E_S`` as two bitmasks."""

    __slots__ = ("plaintext", "encrypted")

    def __init__(self, plaintext: int, encrypted: int) -> None:
        self.plaintext = plaintext
        self.encrypted = encrypted


class MaskProfile:
    """A relation profile with bitmask components (Definition 3.1).

    ``eq`` holds the non-trivial equivalence classes, one mask each,
    sorted.  All masks are relative to ``universe``.
    """

    __slots__ = ("universe", "vp", "ve", "ip", "ie", "eq")

    def __init__(self, universe: "AttributeUniverse", vp: int = 0,
                 ve: int = 0, ip: int = 0, ie: int = 0,
                 eq: tuple[int, ...] = ()) -> None:
        if vp & ve:
            raise ProfileError(
                "attributes visible both plaintext and encrypted: "
                f"{sorted(universe.names(vp & ve))}"
            )
        self.universe = universe
        self.vp = vp
        self.ve = ve
        self.ip = ip
        self.ie = ie
        self.eq = eq

    # ------------------------------------------------------------------
    # Figure 2 algebra, mask-backed (the one row the planner applies)
    # ------------------------------------------------------------------
    def decrypt(self, moved: int) -> "MaskProfile":
        """Fig. 2 decryption row: visible encrypted → visible plaintext."""
        missing = moved & ~self.ve
        if missing:
            raise ProfileError(
                "cannot decrypt attributes not visible encrypted: "
                f"{sorted(self.universe.names(missing))}"
            )
        return MaskProfile(self.universe, self.vp | moved,
                           self.ve & ~moved, self.ip, self.ie, self.eq)

    # ------------------------------------------------------------------
    # Conversion and comparison
    # ------------------------------------------------------------------
    def to_profile(self) -> "RelationProfile":
        """The equivalent :class:`RelationProfile` (for tests/round-trips)."""
        from repro.core.equivalence import EquivalenceClasses
        from repro.core.profile import RelationProfile

        names = self.universe.names
        return RelationProfile(
            visible_plaintext=names(self.vp),
            visible_encrypted=names(self.ve),
            implicit_plaintext=names(self.ip),
            implicit_encrypted=names(self.ie),
            equivalences=EquivalenceClasses(names(m) for m in self.eq),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MaskProfile):
            return NotImplemented
        return (self.universe is other.universe and self.vp == other.vp
                and self.ve == other.ve and self.ip == other.ip
                and self.ie == other.ie and self.eq == other.eq)

    def __hash__(self) -> int:
        return hash((self.vp, self.ve, self.ip, self.ie, self.eq))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = self.universe.names
        return (f"MaskProfile(vp={sorted(names(self.vp))}, "
                f"ve={sorted(names(self.ve))}, ip={sorted(names(self.ip))}, "
                f"ie={sorted(names(self.ie))}, "
                f"eq={[sorted(names(m)) for m in self.eq]})")


class AttributeUniverse:
    """Lazy interning of attribute names into bit positions.

    Examples
    --------
    >>> u = AttributeUniverse()
    >>> u.mask(["S", "C"]) == u.bit("S") | u.bit("C")
    True
    >>> sorted(u.names(u.mask(["S", "C"])))
    ['C', 'S']
    """

    __slots__ = ("_bits", "_names", "_equivalences")

    def __init__(self) -> None:
        self._bits: dict[str, int] = {}
        self._names: list[str] = []
        self._equivalences: dict["EquivalenceClasses", tuple[int, ...]] = {}

    def bit(self, name: str) -> int:
        """The bit of ``name``, interning it on first sight."""
        bit = self._bits.get(name)
        if bit is None:
            bit = 1 << len(self._names)
            self._bits[name] = bit
            self._names.append(name)
        return bit

    def mask(self, names: Iterable[str]) -> int:
        """OR of the bits of ``names``."""
        bits = self._bits
        result = 0
        for name in names:
            bit = bits.get(name)
            if bit is None:
                bit = self.bit(name)
            result |= bit
        return result

    def names(self, mask: int) -> frozenset[str]:
        """The attribute names of the set bits of ``mask``."""
        result = []
        names = self._names
        while mask:
            low = mask & -mask
            result.append(names[low.bit_length() - 1])
            mask ^= low
        return frozenset(result)

    def __len__(self) -> int:
        return len(self._names)

    # ------------------------------------------------------------------
    # Conversions of the model's value types
    # ------------------------------------------------------------------
    def profile_masks(self, profile: "RelationProfile") -> MaskProfile:
        """Mask form of a :class:`RelationProfile`.

        Not memoised: a profile is rarely converted twice into one
        universe, and hashing it costs more than those few conversions.
        """
        return MaskProfile(
            self,
            vp=self.mask(profile.visible_plaintext),
            ve=self.mask(profile.visible_encrypted),
            ip=self.mask(profile.implicit_plaintext),
            ie=self.mask(profile.implicit_encrypted),
            eq=self.equivalence_masks(profile.equivalences),
        )

    def view_masks(self, view: "SubjectView") -> MaskView:
        """Mask form of a :class:`SubjectView` (not memoised, as above)."""
        return MaskView(self.mask(view.plaintext), self.mask(view.encrypted))

    def equivalence_masks(self, equivalences: "EquivalenceClasses",
                          ) -> tuple[int, ...]:
        """Mask tuple of an :class:`EquivalenceClasses` (memoised)."""
        cached = self._equivalences.get(equivalences)
        if cached is None:
            cached = tuple(sorted(self.mask(c) for c in equivalences))
            self._equivalences[equivalences] = cached
        return cached


def relation_authorized(view: MaskView, profile: MaskProfile) -> bool:
    """Definition 4.1 as pure integer operations (no diagnostics).

    Condition 1: ``Rvp ∪ Rip ⊆ P_S``; condition 2:
    ``Rve ∪ Rie ⊆ P_S ∪ E_S``; condition 3: every equivalence class is
    uniformly visible (within ``P_S`` or within ``E_S``).
    """
    plaintext = view.plaintext
    if (profile.vp | profile.ip) & ~plaintext:
        return False
    if (profile.ve | profile.ie) & ~(plaintext | view.encrypted):
        return False
    encrypted = view.encrypted
    for eq_class in profile.eq:
        if eq_class & ~plaintext and eq_class & ~encrypted:
            return False
    return True


def assignee_authorized(view: MaskView,
                        operand_profiles: Iterable[MaskProfile],
                        result_profile: MaskProfile) -> bool:
    """Definition 4.2 as pure integer operations (no diagnostics)."""
    for operand in operand_profiles:
        if not relation_authorized(view, operand):
            return False
    return relation_authorized(view, result_profile)


def relation_violations(view: MaskView,
                        profile: MaskProfile) -> tuple[str, ...]:
    """Why Definition 4.1 refuses ``profile`` to ``view``: one reason per
    failed condition (per class for condition 3), tagged with its number
    and naming the attributes through the profile's universe.  Empty when
    :func:`relation_authorized` holds; call it only after a ``False``."""
    names = profile.universe.names
    plaintext, encrypted = view.plaintext, view.encrypted
    reasons = []
    missing = (profile.vp | profile.ip) & ~plaintext
    if missing:
        reasons.append("condition 1: no plaintext authorization for "
                       f"{sorted(names(missing))}")
    missing = (profile.ve | profile.ie) & ~(plaintext | encrypted)
    if missing:
        reasons.append("condition 2: no visibility authorization for "
                       f"{sorted(names(missing))}")
    reasons.extend(sorted(
        "condition 3: non-uniform visibility over "
        f"{{{','.join(sorted(names(eq_class)))}}}"
        for eq_class in profile.eq
        if eq_class & ~plaintext and eq_class & ~encrypted))
    return tuple(reasons)


def assignee_violations(view: MaskView,
                        operand_profiles: Iterable[MaskProfile],
                        result_profile: MaskProfile) -> tuple[str, ...]:
    """Why Definition 4.2 refuses: :func:`relation_violations` of each
    operand (``operand i:``) and of the result (``result:``)."""
    reasons = [f"operand {index}: {reason}"
               for index, operand in enumerate(operand_profiles)
               for reason in relation_violations(view, operand)]
    reasons.extend(f"result: {reason}"
                   for reason in relation_violations(view, result_profile))
    return tuple(reasons)
