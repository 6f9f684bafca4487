"""Query-plan trees: traversal, profile annotation, and pretty printing.

A :class:`QueryPlan` wraps the root :class:`~repro.core.operators.PlanNode`
of an operator tree and offers the tree-level services that Sections 3–6 of
the paper rely on: post-order visits, parent/ancestor lookup, per-node
profile computation (Figure 3), and structural validation.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterable, Iterator, Mapping, TypeVar

from repro.core.operators import (
    BaseRelationNode,
    Decrypt,
    Encrypt,
    PlanNode,
)
from repro.core.profile import RelationProfile
from repro.exceptions import PlanError

V = TypeVar("V")


class NodeMap(Generic[V]):
    """A node → value mapping keyed by object identity, O(1) per lookup.

    Plan nodes compare by identity, and per-node annotations (profiles,
    assignments, plaintext requirements, candidate sets) must never
    confuse two structurally equal nodes at different plan positions.
    ``NodeMap`` makes that contract explicit and cheap: keys are
    ``id(node)`` with the node kept alive by the map, replacing the
    ``for key, value in mapping.items(): if key is node`` identity scans
    that used to be O(n) per lookup.

    Examples
    --------
    >>> from repro.core.schema import Relation
    >>> leaf = BaseRelationNode(Relation("R", ["a"]))
    >>> m = NodeMap([(leaf, "X")])
    >>> m[leaf]
    'X'
    >>> leaf in m and len(m) == 1
    True
    """

    __slots__ = ("_values", "_nodes")

    def __init__(self, items: Mapping[PlanNode, V]
                 | Iterable[tuple[PlanNode, V]] = ()) -> None:
        self._values: dict[int, V] = {}
        self._nodes: dict[int, PlanNode] = {}
        if isinstance(items, Mapping):
            items = items.items()
        for node, value in items:
            self[node] = value

    def __getitem__(self, node: PlanNode) -> V:
        try:
            return self._values[id(node)]
        except KeyError:
            raise KeyError(node) from None

    def __setitem__(self, node: PlanNode, value: V) -> None:
        self._values[id(node)] = value
        self._nodes[id(node)] = node

    def get(self, node: PlanNode, default: V | None = None) -> V | None:
        """Value for ``node``, or ``default`` when absent."""
        return self._values.get(id(node), default)

    def __contains__(self, node: object) -> bool:
        return isinstance(node, PlanNode) and id(node) in self._values

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[PlanNode]:
        return iter(self._nodes.values())

    def keys(self) -> Iterator[PlanNode]:
        """The nodes, in insertion order."""
        return iter(self._nodes.values())

    def values(self) -> Iterator[V]:
        """The values, in insertion order."""
        return iter(self._values.values())

    def items(self) -> Iterator[tuple[PlanNode, V]]:
        """(node, value) pairs, in insertion order."""
        return zip(self._nodes.values(), self._values.values())


class QueryPlan:
    """An immutable operator tree with cached derived structure.

    Examples
    --------
    >>> from repro.core.schema import Relation
    >>> from repro.core.operators import BaseRelationNode, Projection
    >>> hosp = Relation("Hosp", ["S", "B", "D", "T"])
    >>> plan = QueryPlan(Projection(BaseRelationNode(hosp), ["S", "D"]))
    >>> [n.label() for n in plan.postorder()]
    ['Hosp(S,B,D,T)', 'π[D,S]']
    """

    __slots__ = ("root", "_postorder", "_parents", "_profiles",
                 "_fingerprint", "_requirements", "_lineage")

    def __init__(self, root: PlanNode) -> None:
        self.root = root
        self._postorder: tuple[PlanNode, ...] = tuple(_postorder_walk(root))
        if len({id(n) for n in self._postorder}) != len(self._postorder):
            raise PlanError("plan nodes must not be shared between positions")
        parents: dict[int, PlanNode | None] = {id(root): None}
        for node in self._postorder:
            for child in node.children:
                parents[id(child)] = node
        self._parents = parents
        self._profiles: NodeMap[RelationProfile] | None = None
        self._fingerprint: tuple | None = None
        #: Scheme capabilities → ``Ap`` per operation, filled by
        #: :func:`repro.core.requirements.infer_plaintext_requirements`.
        self._requirements: dict[object, dict] = {}
        #: Alias → source attribute, filled by
        #: :func:`repro.core.lineage.derived_lineage`.
        self._lineage: dict[str, str | None] | None = None

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
            return self._parents[id(node)]
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
        return isinstance(node, PlanNode) and id(node) in self._parents

    def __len__(self) -> int:
        return len(self._postorder)

    # ------------------------------------------------------------------
    # Profiles (Figure 3)
    # ------------------------------------------------------------------
    def profiles(self) -> Mapping[PlanNode, RelationProfile]:
        """Profile of the relation produced by every node (cached).

        The result maps node → profile using identity semantics, mirroring
        the per-node tags of Figure 3.
        """
        if self._profiles is None:
            computed: NodeMap[RelationProfile] = NodeMap()
            for node in self._postorder:
                child_profiles = [computed[c] for c in node.children]
                computed[node] = node.output_profile(*child_profiles)
            self._profiles = computed
        return self._profiles

    def profile(self, node: PlanNode) -> RelationProfile:
        """Profile of the relation produced by ``node``."""
        try:
            return self.profiles()[node]
        except KeyError:
            raise PlanError(f"node {node!r} is not part of this plan") from None

    def root_profile(self) -> RelationProfile:
        """Profile of the query result."""
        return self.profile(self.root)

    # ------------------------------------------------------------------
    # Identification
    # ------------------------------------------------------------------
    def fingerprint(self) -> tuple:
        """A hashable structural fingerprint of the plan (cached).

        Two plans share a fingerprint exactly when they have the same
        shape, the same operator parameters (via :meth:`PlanNode.label`),
        and leaves over relations with the same name, cardinality, and
        per-attribute statistics — i.e. when the assignment pipeline
        would treat them identically.  Used as (part of) the key of the
        policy-versioned assignment cache
        (:class:`repro.core.plancache.AssignmentCache`).
        """
        if self._fingerprint is None:
            parts = []
            for node in self._postorder:
                if isinstance(node, BaseRelationNode):
                    relation = node.relation
                    stats = tuple(
                        (name, relation.spec(name).width,
                         relation.spec(name).distinct_fraction)
                        for name in sorted(node.projection)
                    )
                    parts.append(("leaf", relation.name,
                                  relation.cardinality, stats))
                else:
                    parts.append((type(node).__name__, node.label(),
                                  len(node.children)))
            self._fingerprint = tuple(parts)
        return self._fingerprint

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
        rebuilt: dict[int, PlanNode] = {}
        for node in self._postorder:
            children = tuple(rebuilt[id(c)] for c in node.children)
            rebuilt[id(node)] = transform(node, children)
        return QueryPlan(rebuilt[id(self.root)])

    def strip_crypto_nodes(self) -> "QueryPlan":
        """Remove all Encrypt/Decrypt nodes, recovering the original plan."""

        def strip(node: PlanNode, children: tuple[PlanNode, ...]) -> PlanNode:
            if isinstance(node, (Encrypt, Decrypt)):
                return children[0]
            return node.with_children(children) if children else \
                node.with_children(())

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
                extra = _identity_get(annotations, node)
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


def _identity_get(mapping: Mapping[PlanNode, str] | NodeMap[str],
                  node: PlanNode) -> str | None:
    """Fetch a per-node annotation (nodes hash by identity, so O(1))."""
    return mapping.get(node)


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
