"""Sub-query dispatch (§6, Figure 8).

An extended plan with its assignment is partitioned into *fragments*: the
maximal subtrees executed by a single subject.  Each fragment becomes a
sub-query ``req_S`` that pulls its inputs from the fragments below it —
exactly the paper's dispatch where U calls Y, whose query references
``req_X``, which references ``req_H`` and ``req_I``.

For every fragment the dispatcher renders a human-readable SQL-like text
(the middle column of Figure 8) and collects the encryption keys its
subject needs; the communication layer in :mod:`repro.distributed` seals
``[[q, keys] priU ] pubS`` envelopes around them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.core.authorization import holder_of
from repro.core.extension import ExtendedPlan
from repro.core.keys import KeyAssignment
from repro.core.operators import (
    BaseRelationNode,
    CartesianProduct,
    Decrypt,
    Encrypt,
    GroupBy,
    Join,
    PlanNode,
    Projection,
    Selection,
    Udf,
)
from repro.exceptions import DispatchError


@dataclass
class SubQuery:
    """One fragment of the extended plan, executed by one subject."""

    fragment_id: str
    subject: str
    root: PlanNode
    nodes: tuple[PlanNode, ...]
    #: fragment ids this sub-query pulls results from, keyed by the
    #: boundary node (the child of this fragment produced elsewhere).
    requests: dict[int, str] = field(default_factory=dict)
    key_names: tuple[str, ...] = ()
    text: str = ""

    def describe(self) -> str:
        """Figure 8-style row: subject, keys, and query text."""
        keys = ",".join(self.key_names) or "-"
        return f"{self.subject} [{keys}]: {self.text}"


@dataclass(eq=False)
class DispatchPlan:
    """All sub-queries of one query execution, root fragment first.

    Compared and hashed by identity: the runtime keeps what it computed
    for a plan in a weak map keyed on the plan object itself.
    """

    fragments: dict[str, SubQuery]
    root_fragment_id: str
    user: str

    def fragment(self, fragment_id: str) -> SubQuery:
        """Look up a fragment."""
        try:
            return self.fragments[fragment_id]
        except KeyError:
            raise DispatchError(f"unknown fragment {fragment_id!r}") from None

    def in_call_order(self) -> Iterator[SubQuery]:
        """Fragments in request order (root first, then its inputs)."""
        pending = [self.root_fragment_id]
        while pending:
            fragment = self.fragment(pending.pop(0))
            yield fragment
            pending.extend(fragment.requests.values())

    def describe(self) -> str:
        """The Figure 8 table."""
        return "\n".join(f.describe() for f in self.in_call_order())


def dispatch(extended: ExtendedPlan, keys: KeyAssignment,
             owners: Mapping[str, str] | None = None,
             user: str = "U") -> DispatchPlan:
    """Partition an extended plan into per-subject sub-queries.

    Fragment boundaries fall wherever the executing subject changes
    (leaves belong to the authority owning the relation).  Keys are
    attached to the fragments containing the encryption/decryption
    operations that need them, reproducing §6's key distribution.
    """
    plan = extended.plan

    def location(node: PlanNode) -> str:
        if isinstance(node, BaseRelationNode):
            return holder_of(node.relation.name, owners)
        return extended.assignee(node)

    # Identify fragment roots: plan root + every node whose parent runs
    # under a different subject.
    roots: list[PlanNode] = []
    for node in plan.postorder():
        parent = plan.parent(node)
        if parent is None or location(node) != location(parent):
            roots.append(node)

    fragment_of_root: dict[int, str] = {}
    counters: dict[str, int] = {}
    for root in roots:
        subject = location(root)
        counters[subject] = counters.get(subject, 0) + 1
        suffix = str(counters[subject]) if counters[subject] > 1 else ""
        fragment_of_root[id(root)] = f"req{subject}{suffix}"

    fragments: dict[str, SubQuery] = {}
    for root in roots:
        subject = location(root)
        nodes: list[PlanNode] = []
        requests: dict[int, str] = {}
        stack = [root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            for child in node.children:
                if id(child) in fragment_of_root:
                    requests[id(child)] = fragment_of_root[id(child)]
                else:
                    stack.append(child)
        key_names = _fragment_keys(nodes, keys)
        fragment = SubQuery(
            fragment_id=fragment_of_root[id(root)],
            subject=subject,
            root=root,
            nodes=tuple(nodes),
            requests=requests,
            key_names=key_names,
        )
        fragment.text = _render_fragment(fragment, keys, extended)
        fragments[fragment.fragment_id] = fragment

    return DispatchPlan(
        fragments=fragments,
        root_fragment_id=fragment_of_root[id(plan.root)],
        user=user,
    )


def _fragment_keys(nodes: list[PlanNode],
                   keys: KeyAssignment) -> tuple[str, ...]:
    names: set[str] = set()
    for node in nodes:
        if isinstance(node, (Encrypt, Decrypt)):
            for attribute in node.attributes:
                names.add(keys.key_for(attribute).name)
    return tuple(sorted(names))


# ---------------------------------------------------------------------------
# SQL-like rendering (the middle column of Figure 8)
# ---------------------------------------------------------------------------


def _render_fragment(fragment: SubQuery, keys: KeyAssignment,
                     extended: ExtendedPlan) -> str:
    """Render a fragment as nested SQL-like text.

    Encrypted attributes are marked ``a^k`` as in the paper; encryption
    and decryption appear as ``encrypt(a, kA)`` / ``decrypt(a^k, kA)``
    expressions in the select list.  Select lists across fragment
    boundaries are reconstructed from the extended plan's profiles.
    """
    state = _RenderState(fragment, keys, extended)
    select_list, source, clauses = state.render(fragment.root)
    parts = [f"select {', '.join(select_list)}", f"from {source}"]
    parts.extend(clauses)
    return " ".join(parts)


class _RenderState:
    """Accumulates clauses while walking a fragment top-down."""

    def __init__(self, fragment: SubQuery, keys: KeyAssignment,
                 extended: ExtendedPlan) -> None:
        self.fragment = fragment
        self.keys = keys
        self.profiles = extended.plan.profiles()

    def key_of(self, attribute: str) -> str:
        try:
            return self.keys.key_for(attribute).name
        except Exception:
            return f"k{attribute}"

    def mark(self, attribute: str, node: PlanNode) -> str:
        """``a^k`` when ``a`` is encrypted in ``node``'s output."""
        profile = self.profiles[node]
        if attribute in profile.visible_encrypted:
            return f"{attribute}^k"
        return attribute

    def select_of(self, node: PlanNode) -> list[str]:
        """Plain select list from a node's output profile."""
        profile = self.profiles[node]
        return [self.mark(a, node) for a in sorted(profile.visible)]

    def render(self, node: PlanNode,
               ) -> tuple[list[str], str, list[str]]:
        if id(node) in self.fragment.requests:
            request = self.fragment.requests[id(node)]
            return self.select_of(node), f"⟦{request}⟧", []
        if isinstance(node, BaseRelationNode):
            kept = [a for a in node.relation.attribute_names
                    if a in node.projection]
            return kept, node.relation.name, []
        if isinstance(node, Encrypt):
            select, source, clauses = self.render(node.left)
            select = _replace_each(
                select, node.attributes,
                lambda a: f"encrypt({a},{self.key_of(a)})",
            )
            return select, source, clauses
        if isinstance(node, Decrypt):
            select, source, clauses = self.render(node.left)
            select = _replace_each(
                select, node.attributes,
                lambda a: f"decrypt({a}^k,{self.key_of(a)}) as {a}",
            )
            return select, source, clauses
        if isinstance(node, Selection):
            select, source, clauses = self.render(node.left)
            keyword = "having" if self._below_group_by(node) else "where"
            condition = self._render_predicate(node)
            return select, source, clauses + [f"{keyword} {condition}"]
        if isinstance(node, Projection):
            select, source, clauses = self.render(node.left)
            kept = [s for s in select
                    if _base_attribute(s) in node.attributes]
            return kept or self.select_of(node), source, clauses
        if isinstance(node, (Join, CartesianProduct)):
            left_sel, left_src, left_cl = self.render(node.left)
            right_sel, right_src, right_cl = self.render(node.right)
            if isinstance(node, Join):
                condition = self._render_predicate(node)
                source = f"{left_src} join {right_src} on {condition}"
            else:
                source = f"{left_src}, {right_src}"
            return left_sel + right_sel, source, left_cl + right_cl
        if isinstance(node, GroupBy):
            select, source, clauses = self.render(node.left)
            group = ",".join(
                self.mark(a, node.left)
                for a in sorted(node.group_attributes)
            )
            new_select = [s for s in select
                          if _base_attribute(s) in node.group_attributes]
            for aggregate in node.aggregates:
                new_select.append(self._render_aggregate(node, aggregate))
            return new_select, source, clauses + [f"group by {group}"]
        if isinstance(node, Udf):
            select, source, clauses = self.render(node.left)
            inputs = ",".join(
                self.mark(a, node.left) for a in sorted(node.inputs)
            )
            kept = [s for s in select
                    if _base_attribute(s) not in node.inputs]
            kept.append(
                f"{node.name}({inputs}) as {self.mark(node.output, node)}"
            )
            return kept, source, clauses
        raise DispatchError(f"cannot render node {node!r}")

    def _render_aggregate(self, node: GroupBy, aggregate) -> str:
        attribute = aggregate.attribute
        if attribute is None:
            return f"count(*) as {aggregate.output_name}"
        argument = self.mark(attribute, node.left)
        alias = self.mark(aggregate.output_name, node)
        return f"{aggregate.function}({argument}) as {alias}"

    def _render_predicate(self, node: Selection | Join) -> str:
        """Predicate text with ``^k`` markers on encrypted attributes."""
        if isinstance(node, Selection):
            predicate, operand = node.predicate, node.left
        else:
            predicate, operand = node.condition, None
        if operand is not None:
            encrypted = self.profiles[operand].visible_encrypted
        else:
            encrypted = (self.profiles[node.left].visible_encrypted
                         | self.profiles[node.right].visible_encrypted)
        # Whole identifiers only: ``s_suppkey`` is also a substring of
        # ``ps_suppkey``.
        marked = predicate.attributes() & encrypted
        return re.sub(
            r"\w+", lambda m: m[0] + ("^k" if m[0] in marked else ""),
            str(predicate))

    def _below_group_by(self, node: PlanNode) -> bool:
        """Whether a selection follows a group-by in this same fragment."""
        current = node.left
        while id(current) not in self.fragment.requests:
            if isinstance(current, GroupBy):
                return True
            if isinstance(current, (Encrypt, Decrypt, Projection)):
                current = current.left
                continue
            return False
        return False


def _replace_each(select: list[str], attributes: frozenset[str],
                  renderer) -> list[str]:
    out = []
    for item in select:
        base = _base_attribute(item)
        if base in attributes:
            out.append(renderer(base))
        else:
            out.append(item)
    return out


def _base_attribute(rendered: str) -> str:
    """Best-effort recovery of the attribute a select item refers to."""
    text = rendered.strip()
    if " as " in text:
        text = text.rsplit(" as ", 1)[1]
    text = text.replace("^k", "")
    for opener in ("encrypt(", "decrypt("):
        if text.startswith(opener):
            text = text[len(opener):].split(",", 1)[0]
    if "(" in text and text.endswith(")"):
        text = text.split("(", 1)[1][:-1]
    return text.strip()
