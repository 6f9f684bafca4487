"""Lineage of derived attributes (aggregate aliases).

The paper's model names every aggregate output after its source attribute
(``avg(P)`` is still ``P``), so authorizations always resolve.  With the
renaming extension (footnote 1 of the paper; :class:`Aggregate.alias`),
plans can introduce *derived* attribute names unknown to the policy.
Semantically a derived attribute carries exactly the information of its
source — the profile rules make the two equivalent — so a subject's
authorization on the source extends to the derived name.

This module computes the alias → source lineage of a plan and *augments*
subject views accordingly: a derived attribute joins ``P_S`` (``E_S``)
whenever its transitive source is there.  ``count(*)`` outputs have no
source attribute; the model does not track group cardinalities (§3.2
keeps only the grouping attributes for ``count(*)``), so they are treated
as unrestricted.
"""

from __future__ import annotations

from repro.core.authorization import SubjectView
from repro.core.operators import GroupBy
from repro.core.plan import QueryPlan

#: alias name → source attribute name (``None`` for count(*) outputs).
Lineage = dict[str, str | None]


def derived_lineage(plan: QueryPlan) -> Lineage:
    """Collect the alias → source mapping of every derived attribute.

    Transitive aliases (an aggregate over a lower aggregate's alias) are
    resolved down to base attributes.  Computed once per plan (a plan is
    immutable) and shared by every caller: read it, never write it.
    """
    if plan._lineage is not None:
        return plan._lineage
    lineage: Lineage = {}
    for node in plan.postorder():
        if not isinstance(node, GroupBy):
            continue
        for aggregate in node.aggregates:
            name = aggregate.output_name
            if aggregate.attribute is None:
                lineage[name] = None
            elif name != aggregate.attribute:
                lineage[name] = aggregate.attribute
    # Resolve chains alias → alias → base.
    resolved: Lineage = {}
    for name in lineage:
        source = lineage[name]
        seen = {name}
        while source is not None and source in lineage \
                and source not in seen:
            seen.add(source)
            source = lineage[source]
        resolved[name] = source
    plan._lineage = resolved
    return resolved


def augment_view(view: SubjectView, lineage: Lineage) -> SubjectView:
    """Extend a subject view to cover derived attributes.

    A derived attribute is plaintext-visible (encrypted-visible) to the
    subject iff its source is; sourceless derived attributes (counts) are
    plaintext-visible to everyone.
    """
    if not lineage:
        return view
    plaintext = set(view.plaintext)
    encrypted = set(view.encrypted)
    for name, source in lineage.items():
        if source is None:
            plaintext.add(name)
        elif source in view.plaintext:
            plaintext.add(name)
        elif source in view.encrypted:
            encrypted.add(name)
    return SubjectView(
        subject=view.subject,
        plaintext=frozenset(plaintext),
        encrypted=frozenset(encrypted),
    )
