"""What each subject received, judged by code that shares none with the
planner or the runtime's checks.

The runtime records every table it hands a subject as a
:class:`~repro.distributed.trace.TableRow` (the producing fragment,
sender, recipient, the plan node, each column's stated representation).
This monitor judges those rows after the fact, from the policy's rules
alone:

* each recipient's view ``P_S`` / ``E_S`` is built here from
  ``Policy.rules()`` — a subject's explicit rule on a relation, else the
  relation's ``any`` default (Figure 4) — never from ``Policy.view``;
* aggregate aliases are resolved here, from the γ nodes below the
  delivered node: an alias is visible as its source is, a ``count(*)``
  output to everybody (the lineage rule of §3.2's renaming footnote);
* every column must be visible in the representation it arrived in:
  plaintext in ``P_S``, sealed in ``P_S ∪ E_S`` (a column with no value
  shows nothing);
* the delivered relation's profile must pass the literal Def. 4.1
  (:func:`oracles.authorization_literal.check_relation`).  The profile
  of a node is a function of its subtree, so it is derived from the
  node itself, and the rows of a run whose plan a re-plan replaced are
  judged like any other.

It judges against the policy as it stands: a row recorded at another
policy version raises, since replaying a churn stream at each row's own
version is not done here (ROADMAP 22(b)).
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from repro.core.authorization import ANY
from repro.core.operators import GroupBy
from repro.core.plan import QueryPlan
from repro.distributed.trace import TableRow
from repro.engine.values import PLAINTEXT

from oracles.authorization_literal import check_relation


class View(NamedTuple):
    subject: str
    plaintext: frozenset[str]
    encrypted: frozenset[str]


class Violation(NamedTuple):
    """One thing a subject was handed that it may not see."""

    recipient: str
    #: Label of the delivered plan node.
    node: str
    #: The column at fault, ``None`` for a Def. 4.1 reason.
    column: str | None
    representation: object
    reason: str


def rule_view(policy, subject: str) -> View:
    """``P_S`` / ``E_S`` of ``subject``, from the policy's rules."""
    rules = list(policy.rules())
    chosen = {rule.relation: rule for rule in rules if rule.subject == ANY}
    chosen.update((rule.relation, rule) for rule in rules
                  if rule.subject == subject)
    plaintext = frozenset().union(*(r.plaintext for r in chosen.values()))
    encrypted = frozenset().union(*(r.encrypted for r in chosen.values()))
    return View(subject, plaintext, encrypted - plaintext)


def aliases_below(node) -> dict[str, str | None]:
    """Alias → base attribute (``None`` for ``count(*)``) of every
    aggregate output at or below ``node``."""
    direct: dict[str, str | None] = {}
    pending = [node]
    while pending:
        current = pending.pop()
        pending.extend(current.children)
        if isinstance(current, GroupBy):
            for aggregate in current.aggregates:
                name = aggregate.alias or aggregate.attribute
                if aggregate.attribute is None:
                    direct[name] = None
                elif name != aggregate.attribute:
                    direct[name] = aggregate.attribute
    resolved = {}
    for name, source in direct.items():
        seen = {name}
        while source in direct and source not in seen:
            seen.add(source)
            source = direct[source]
        resolved[name] = source
    return resolved


def with_aliases(view: View, aliases: dict[str, str | None]) -> View:
    plaintext = {name for name, source in aliases.items()
                 if source is None or source in view.plaintext}
    encrypted = {name for name, source in aliases.items()
                 if source in view.encrypted}
    return View(view.subject, view.plaintext | plaintext,
                view.encrypted | (encrypted - plaintext))


def violations(rows: Iterable, policy) -> list[Violation]:
    """Every violation among the table rows of ``rows`` (a trace's
    ``deliveries``), judged against ``policy``."""
    found: list[Violation] = []
    views: dict[str, View] = {}
    for row in rows:
        if not isinstance(row, TableRow):
            continue
        if row.version != policy.version:
            raise ValueError(
                f"row recorded at policy version {row.version}, the policy "
                f"is at {policy.version}")
        base = views.get(row.recipient)
        if base is None:
            base = views[row.recipient] = rule_view(policy, row.recipient)
        view = with_aliases(base, aliases_below(row.node))
        label = row.node.label()
        for column, kind in zip(row.columns, row.representations):
            if kind is None:
                continue
            if kind == PLAINTEXT:
                if column not in view.plaintext:
                    found.append(Violation(
                        row.recipient, label, column, kind,
                        "plaintext column outside P_S"))
            elif column not in view.plaintext | view.encrypted:
                found.append(Violation(
                    row.recipient, label, column, kind,
                    "sealed column outside P_S ∪ E_S"))
        verdict = check_relation(view, QueryPlan(row.node).profile(row.node))
        found.extend(Violation(row.recipient, label, None, None, reason)
                     for reason in verdict.violations)
    return found
