"""Query-plan trees: traversal, profile annotation, and pretty printing.

A :class:`QueryPlan` wraps the root :class:`~repro.core.operators.PlanNode`
of an operator tree and offers the tree-level services that Sections 3–6 of
the paper rely on: post-order visits, parent/ancestor lookup, per-node
profile computation (Figure 3), structural validation, and the one rule
that runs plan nodes in another order than the plan writes them
(:func:`physical_step`).
"""

from __future__ import annotations

from typing import Callable, Container, Iterator, Mapping

from repro.core.operators import (
    BaseRelationNode,
    Decrypt,
    Encrypt,
    PlanNode,
    Projection,
    Selection,
)
from repro.core.profile import RelationProfile
from repro.exceptions import PlanError


class QueryPlan:
    """An immutable operator tree with cached derived structure.

    A plan, like each of its nodes, compares and hashes by identity, so
    the plan object and its nodes are the keys of every per-plan and
    per-node table: two structurally equal plans never share an entry.

    Examples
    --------
    >>> from repro.core.schema import Relation
    >>> from repro.core.operators import BaseRelationNode, Projection
    >>> hosp = Relation("Hosp", ["S", "B", "D", "T"])
    >>> plan = QueryPlan(Projection(BaseRelationNode(hosp), ["S", "D"]))
    >>> [n.label() for n in plan.postorder()]
    ['Hosp(S,B,D,T)', 'π[D,S]']
    """

    __slots__ = ("root", "columns", "_postorder", "_parents", "_profiles",
                 "_requirements", "_lineage", "_masks")

    def __init__(self, root: PlanNode,
                 columns: tuple[str, ...] | None = None,
                 profiles: dict[PlanNode, RelationProfile] | None = None,
                 ) -> None:
        self.root = root
        #: The result's column order (SELECT order for a plan from SQL),
        #: applied where a result is handed back (:meth:`in_result_order`);
        #: ``None`` keeps the operand order the operators produce.
        self.columns = columns
        self._postorder: tuple[PlanNode, ...] = tuple(_postorder_walk(root))
        if len(set(self._postorder)) != len(self._postorder):
            raise PlanError("plan nodes must not be shared between positions")
        parents: dict[PlanNode, PlanNode | None] = {root: None}
        for node in self._postorder:
            for child in node.children:
                parents[child] = node
        self._parents = parents
        if profiles is not None and len(profiles) != len(self._postorder):
            raise PlanError("handed profiles must cover every node")
        #: Node → profile: handed over by a builder that derived every
        #: node's profile as it built the tree (``minimally_extend``), or
        #: computed on first use by :meth:`profiles`.
        self._profiles = profiles
        #: ``Ap`` per operation, filled by
        #: :func:`repro.core.requirements.infer_plaintext_requirements`.
        self._requirements: dict | None = None
        #: Alias → source attribute, filled by
        #: :func:`repro.core.lineage.derived_lineage`.
        self._lineage: dict[str, str | None] | None = None
        #: The profiles interned, filled by
        #: :func:`repro.core.visibility._plan_masks`.
        self._masks: tuple | None = None

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def postorder(self) -> Iterator[PlanNode]:
        """Visit children before parents (the paper's visit order, §6)."""
        return iter(self._postorder)

    def nodes(self) -> tuple[PlanNode, ...]:
        """All nodes, in post-order."""
        return self._postorder

    def operations(self) -> tuple[PlanNode, ...]:
        """All non-leaf nodes, in post-order."""
        return tuple(n for n in self._postorder if not n.is_leaf)

    def leaves(self) -> tuple[BaseRelationNode, ...]:
        """The base relations of the plan, left to right."""
        return tuple(
            n for n in self._postorder if isinstance(n, BaseRelationNode)
        )

    def parent(self, node: PlanNode) -> PlanNode | None:
        """Parent of ``node``, or ``None`` for the root."""
        try:
            return self._parents[node]
        except KeyError:
            raise PlanError(f"node {node!r} is not part of this plan") from None

    def ancestors(self, node: PlanNode) -> Iterator[PlanNode]:
        """Strict ancestors of ``node``, nearest first."""
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def is_descendant(self, node: PlanNode, ancestor: PlanNode) -> bool:
        """Whether ``ancestor`` lies on the path from ``node`` to the root."""
        return any(a is ancestor for a in self.ancestors(node))

    def __contains__(self, node: object) -> bool:
        return isinstance(node, PlanNode) and node in self._parents

    def __len__(self) -> int:
        return len(self._postorder)

    # ------------------------------------------------------------------
    # Profiles (Figure 3)
    # ------------------------------------------------------------------
    def profiles(self) -> Mapping[PlanNode, RelationProfile]:
        """Profile of the relation produced by every node (cached).

        The result maps node → profile (nodes are their own keys),
        mirroring the per-node tags of Figure 3.
        """
        if self._profiles is None:
            computed: dict[PlanNode, RelationProfile] = {}
            for node in self._postorder:
                child_profiles = [computed[c] for c in node.children]
                computed[node] = node.output_profile(*child_profiles)
            self._profiles = computed
        return self._profiles

    def profile(self, node: PlanNode) -> RelationProfile:
        """Profile of the relation produced by ``node``: until
        :meth:`profiles` has run, over its own subtree alone (a node above
        it that Fig. 2 refuses does not stop it)."""
        if self._profiles is None and node is not self.root \
                and node in self:
            return node.output_profile(*map(self.profile, node.children))
        try:
            return self.profiles()[node]
        except KeyError:
            raise PlanError(f"node {node!r} is not part of this plan") from None

    def root_profile(self) -> RelationProfile:
        """Profile of the query result."""
        return self.profile(self.root)

    # ------------------------------------------------------------------
    # Rewriting
    # ------------------------------------------------------------------
    def rewrite(self, transform: Callable[[PlanNode, tuple[PlanNode, ...]],
                                          PlanNode]) -> "QueryPlan":
        """Rebuild the tree bottom-up through ``transform``.

        ``transform`` receives each original node together with its already
        rewritten children and returns the node to use in the new tree
        (typically ``node.with_children(children)`` possibly wrapped in
        :class:`~repro.core.operators.Encrypt` / ``Decrypt`` nodes).
        """
        rebuilt: dict[PlanNode, PlanNode] = {}
        for node in self._postorder:
            children = tuple(rebuilt[c] for c in node.children)
            rebuilt[node] = transform(node, children)
        return QueryPlan(rebuilt[self.root], self.columns)

    def in_result_order(self, table):
        """``table`` (the root's result) with its columns in
        :attr:`columns` order: a permutation, not a plan node, so no
        cost model prices it."""
        if self.columns is None or tuple(table.columns) == self.columns:
            return table
        return table.bulk_project(self.columns)

    def strip_crypto_nodes(self) -> "QueryPlan":
        """Remove all Encrypt/Decrypt nodes, recovering the original plan."""

        def strip(node: PlanNode, children: tuple[PlanNode, ...]) -> PlanNode:
            if isinstance(node, (Encrypt, Decrypt)):
                return children[0]
            return node.with_children(children)

        return self.rewrite(strip)

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def pretty(self, annotations: Mapping[PlanNode, str] | None = None) -> str:
        """Indented rendering of the tree, with optional per-node notes."""
        lines: list[str] = []

        def visit(node: PlanNode, depth: int) -> None:
            note = ""
            if annotations is not None:
                extra = annotations.get(node)
                if extra:
                    note = f"    -- {extra}"
            lines.append("  " * depth + node.label() + note)
            for child in node.children:
                visit(child, depth + 1)

        visit(self.root, 0)
        return "\n".join(lines)

    def describe_profiles(self) -> str:
        """The tree annotated with each node's profile tag (Figure 3)."""
        profiles = self.profiles()
        return self.pretty({n: profiles[n].describe() for n in self.nodes()})


def physical_step(plan: QueryPlan, node: PlanNode,
                  runs: Container[PlanNode]) -> tuple[PlanNode, ...]:
    """The nodes evaluated together to produce ``node``, in run order, by
    an evaluator running the nodes ``runs`` (its fragment's
    ``SubQuery.nodes``; single-site, the plan itself).

    Figure 8's ``select encrypt(…) from X where …``: a chain
    ``π(σ(enc_A(X)))``, ``π(enc_A(X))`` or ``σ(enc_A(X))`` runs as
    ``(σ, π, Encrypt)`` over the Encrypt's operands, the Encrypt sealing
    only the columns π kept (π is a bag), when (A) the Encrypt and the σ
    are in ``runs`` and (B) no predicate column is visible encrypted in
    the Encrypt's operand.  Otherwise ``(node,)``.  The plan keeps the
    Encrypt below: Fig. 2's encrypt row leaves ``Rip`` alone.
    """
    chain = [node]
    if isinstance(node, Projection) and isinstance(node.left, Selection) \
            and node.left in runs:
        chain.append(node.left)
    top = chain[-1]
    if not isinstance(top, (Projection, Selection)) \
            or not isinstance(top.left, Encrypt) or top.left not in runs:
        return (node,)
    if isinstance(top, Selection) and not top.predicate.attributes() \
            .isdisjoint(plan.profile(top.left.left).visible_encrypted):
        return (node,)
    return (*reversed(chain), top.left)


def _postorder_walk(root: PlanNode) -> Iterator[PlanNode]:
    """Iterative post-order traversal (avoids recursion limits)."""
    stack: list[tuple[PlanNode, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
        else:
            stack.append((node, True))
            for child in reversed(node.children):
                stack.append((child, False))
