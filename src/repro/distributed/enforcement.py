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
alias lineage; every violation is appended to ``trace.violations``
before :class:`~repro.exceptions.UnauthorizedError` is raised.

One exemption, :func:`is_exempt`: the synthetic ``authority:<relation>``
subject that stands in for a relation nobody owns holds that relation
already and has no policy view to check against.
"""

from __future__ import annotations

from repro.core.authorization import SubjectView
from repro.core.visibility import check_relation
from repro.engine.table import Table
from repro.engine.values import EncryptedAggregate, EncryptedValue
from repro.exceptions import UnauthorizedError


def is_exempt(subject: str) -> bool:
    """Whether ``subject`` is a synthetic data authority (no view)."""
    return subject.startswith("authority:")


def check_profile(view: SubjectView, profile, what: str, trace) -> None:
    """Model-level guard: Definition 4.1 of ``view`` over ``profile``."""
    check = check_relation(view, profile)
    if not check.authorized:
        trace.violations.extend(check.violations)
        raise UnauthorizedError(
            f"{view.subject} is not authorized for {what}: "
            + "; ".join(check.violations),
            subject=view.subject,
            violations=check.violations,
        )


def check_values(view: SubjectView, table: Table, trace) -> None:
    """Value-level guard: representations must match authorizations."""
    for position, column in enumerate(table.columns):
        sample = next((row[position] for row in table.rows
                       if row[position] is not None), None)
        if sample is None:
            continue
        if isinstance(sample, (EncryptedValue, EncryptedAggregate)):
            if not view.can_view_encrypted(column):
                message = (f"{view.subject} received encrypted column "
                           f"{column} without any authorization")
                trace.violations.append(message)
                raise UnauthorizedError(message, subject=view.subject)
        else:
            if not view.can_view_plaintext(column):
                message = (f"{view.subject} received plaintext column "
                           f"{column} without plaintext authorization")
                trace.violations.append(message)
                raise UnauthorizedError(message, subject=view.subject)
