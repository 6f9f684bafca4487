"""Runtime enforcement: what a subject may produce and may receive.

Two layers make violations fail loudly rather than silently, on every
run — there is no switch that turns them off:

* **model-level** (:func:`check_profile`) — before producing a relation,
  a subject re-checks Definition 4.1 against the relation's profile;
* **value-level** (:func:`check_values`) — on receiving a table, a
  subject verifies it can legitimately see every column in the
  representation it arrives in (plaintext columns require plaintext
  authorization, encrypted columns at least encrypted authorization).

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

from repro.core.authorization import SubjectView
from repro.core.visibility import check_relation
from repro.engine.table import Table
from repro.engine.values import EncryptedAggregate, EncryptedValue
from repro.exceptions import UnauthorizedError


def check_profile(view: SubjectView, profile, what: str) -> None:
    """Model-level guard: Definition 4.1 of ``view`` over ``profile``."""
    check = check_relation(view, profile)
    if not check.authorized:
        raise UnauthorizedError(
            f"{view.subject} is not authorized for {what}: "
            + "; ".join(check.violations),
            subject=view.subject,
            violations=check.violations,
        )


def check_values(view: SubjectView, table: Table) -> None:
    """Value-level guard: representations must match authorizations."""
    for position, column in enumerate(table.columns):
        sample = next((row[position] for row in table.rows
                       if row[position] is not None), None)
        if sample is None:
            continue
        if isinstance(sample, (EncryptedValue, EncryptedAggregate)):
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
