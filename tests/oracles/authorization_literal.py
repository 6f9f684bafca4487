"""Definitions 4.1 and 4.2 as the paper writes them, over attribute sets.

The package states both definitions once, over interned bitmasks
(``repro.core.attrsets``: ``relation_authorized`` /
``assignee_authorized``, with ``relation_violations`` /
``assignee_violations`` to say why after a refusal).  This is the
independent statement they are judged against: plain ``frozenset``
algebra on a view's ``plaintext`` / ``encrypted`` and a profile's
components, each reason tagged with the condition it fails.  Nothing
here is imported from ``repro.core.visibility`` or
``repro.core.attrsets`` (``tests/test_layout.py`` checks).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple


class Verdict(NamedTuple):
    """Whether a check holds, and each reason it does not."""

    authorized: bool
    violations: tuple[str, ...] = ()


def check_relation(view, profile) -> Verdict:
    """Definition 4.1 for a subject view and a relation profile.

    1. ``Rvp ∪ Rip ⊆ P_S`` — authorized for plaintext;
    2. ``Rve ∪ Rie ⊆ P_S ∪ E_S`` — authorized for encrypted;
    3. ``∀A ∈ R≃: A ⊆ P_S or A ⊆ E_S`` — uniform visibility.

    Example 4.1 of the paper: given Y's view ``P_Y=BDTP, E_Y=SC`` and a
    relation with profile ``[P, BSC, -, -, {SC}]``, Y is authorized:

    >>> from repro.core.authorization import SubjectView
    >>> from repro.core.profile import RelationProfile
    >>> from repro.core.equivalence import EquivalenceClasses
    >>> y = SubjectView("Y", frozenset("BDTP"), frozenset("SC"))
    >>> r = RelationProfile(frozenset("P"), frozenset("BSC"),
    ...                     equivalences=EquivalenceClasses.of("SC"))
    >>> check_relation(y, r).authorized
    True
    """
    violations: list[str] = []

    plaintext_needed = profile.visible_plaintext | profile.implicit_plaintext
    not_plain = plaintext_needed - view.plaintext
    if not_plain:
        violations.append(
            f"condition 1: no plaintext authorization for {sorted(not_plain)}"
        )

    encrypted_needed = profile.visible_encrypted | profile.implicit_encrypted
    not_enc = encrypted_needed - (view.plaintext | view.encrypted)
    if not_enc:
        violations.append(
            f"condition 2: no visibility authorization for {sorted(not_enc)}"
        )

    for eq_class in profile.equivalences:
        if not (eq_class <= view.plaintext or eq_class <= view.encrypted):
            violations.append(
                "condition 3: non-uniform visibility over "
                f"{{{','.join(sorted(eq_class))}}}"
            )

    return Verdict(not violations, tuple(violations))


def check_assignee(view, operand_profiles: Iterable,
                   result_profile) -> Verdict:
    """Definition 4.2: authorized for every operand *and* the result."""
    violations: list[str] = []
    for index, operand in enumerate(operand_profiles):
        violations.extend(f"operand {index}: {reason}"
                          for reason in check_relation(view, operand)
                          .violations)
    violations.extend(f"result: {reason}"
                      for reason in check_relation(view, result_profile)
                      .violations)
    return Verdict(not violations, tuple(violations))
