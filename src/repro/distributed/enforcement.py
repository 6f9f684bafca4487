"""Runtime enforcement: what a subject may produce and may receive.

Two layers make violations fail loudly rather than silently, on every
run — there is no switch that turns them off:

* **model-level** (:func:`check_profile`) — before producing a relation,
  a subject re-checks Definition 4.1 against the relation's profile,
  through the package's one statement of it
  (:func:`~repro.core.attrsets.relation_authorized`), over the copy of
  the plan's profiles interned once per plan and read by
  :func:`~repro.core.visibility.verify_assignment` too;
* **value-level** (:func:`check_values`) — on receiving a table, a
  subject verifies it can legitimately see every column in the
  representation it arrives in (plaintext columns require plaintext
  authorization, encrypted columns at least encrypted authorization).
  The check reads the representation the table states for each column
  (:func:`~repro.engine.values.representation`), which is read from
  every cell where the column is born — a scan, Encrypt, Decrypt, an
  aggregate or a UDF — so a column mixing representations never gets
  this far, and the check is exact in O(columns).

Together they turn the paper's theorems into executable assertions.
``view`` is the subject's policy view already augmented with the plan's
alias lineage; the reasons ride on the raised
:class:`~repro.exceptions.UnauthorizedError`.

Nobody is exempt, and neither check looks at a subject's name.  The
stand-in for a relation nobody owns
(:data:`~repro.core.authorization.STAND_IN_PREFIX`) exists at plan time
only: it stores nothing, so it has no runtime node
(:func:`~repro.distributed.nodes.build_nodes` refuses the name) and no
fragment can reach these checks under it.  A node that carries such a
name anyway is judged by its policy view like everybody else.
"""

from __future__ import annotations

from repro.core.attrsets import relation_authorized, relation_violations
from repro.core.authorization import SubjectView
from repro.core.operators import PlanNode
from repro.core.plan import QueryPlan
from repro.core.visibility import _plan_masks, _view_masks
from repro.engine.table import Table
from repro.engine.values import PLAINTEXT
from repro.exceptions import UnauthorizedError


def check_profile(view: SubjectView, plan: QueryPlan, node: PlanNode,
                  what: str) -> None:
    """Model-level guard: Definition 4.1 of ``view`` over the relation
    ``node`` produces in ``plan``."""
    universe, masks, names = _plan_masks(plan)
    view_masks = _view_masks(view, universe, names)
    profile_masks = masks[node]
    if not relation_authorized(view_masks, profile_masks):
        violations = relation_violations(view_masks, profile_masks)
        raise UnauthorizedError(
            f"{view.subject} is not authorized for {what}: "
            + "; ".join(violations),
            subject=view.subject,
            violations=violations,
        )


def check_values(view: SubjectView, table: Table) -> None:
    """Value-level guard: representations must match authorizations."""
    for column, kind in zip(table.columns, table.representations):
        if kind is None:
            continue
        if kind != PLAINTEXT:
            if not view.can_view_encrypted(column):
                raise UnauthorizedError(
                    f"{view.subject} received encrypted column "
                    f"{column} without any authorization",
                    subject=view.subject)
        elif not view.can_view_plaintext(column):
            raise UnauthorizedError(
                f"{view.subject} received plaintext column "
                f"{column} without plaintext authorization",
                subject=view.subject)
