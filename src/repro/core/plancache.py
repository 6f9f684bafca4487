"""Delta-reconciled caching of assignment results.

The multi-tenant scenario of the ROADMAP north star — the same queries
planned over a churning policy for millions of users — pays the full §6
pipeline (candidates, DP search, minimal extension, key establishment,
exact costing) on every request unless results are memoised, and at
production scale grants/revokes are a continuous stream: flushing every
cache on every ``Policy.version`` bump would make warm caches a fiction.
:class:`AssignmentCache` therefore memoises full
:class:`~repro.core.assignment.AssignmentResult` objects one layer above
the runtime's fragment-result cache and keeps them alive *across* policy
mutations via the policy's delta journal.

The delta journal
-----------------
Every effective ``grant``/``revoke`` appends a
:class:`~repro.core.authorization.PolicyDelta` to a bounded journal on
the policy: the mutated (relation, subject) pair plus a conservative
``touched`` attribute set — the rule's own ``P ∪ E`` union the
attributes of the :data:`~repro.core.authorization.ANY` default the
mutation displaced or restored (an explicit rule shadows the default, so
granting one can *shrink* a view and revoking one can *grow* it).
:meth:`Policy.deltas_since(v) <repro.core.authorization.Policy.deltas_since>`
returns the deltas after version ``v``, or ``None`` when the journal no
longer reaches back that far.

The reconcile contract
----------------------
Entries record the policy version they were computed at plus a
*dependency footprint* ``(subjects, attributes)`` — see
:func:`plan_dependencies`.  On lookup with a live policy, the cache
walks ``deltas_since(entry.version)``:

* no delta touches the footprint → the entry is **kept** and its
  version rebased to the current one (counter ``reconcile_kept``);
* some delta touches it → the entry **dies** (``reconcile_evicted``);
* the journal was truncated (or the entry's version is unknown to this
  policy) → the entry **dies** unconditionally (``reconcile_flushed``).

Safety invariant
----------------
Every cache reconciling against the journal must be *conservative
toward eviction*: a revocation may never be under-invalidated.  An
entry may only survive a delta stream when its dependency footprint is
provably disjoint from every delta — the footprint must therefore
over-approximate what the entry depends on (here: every subject the
assignment chose among, and every attribute name the plan touches,
including derived aliases, matched by name exactly as
:meth:`Policy.view <repro.core.authorization.Policy.view>` unions rules
by name).  When in doubt, evict; staleness bugs in an authorization
planner are security bugs.

Key and context
---------------
* the **key** combines the plan's structural fingerprint
  (:meth:`~repro.core.plan.QueryPlan.fingerprint`) and the remaining
  value-like inputs of :func:`~repro.core.assignment.assign` (subjects,
  user, owners, strategy, scheme capabilities, per-node plaintext
  requirements).  The policy version is deliberately *not* part of the
  key any more — versioning lives in the reconcile path;
* the **context** holds the identity-compared inputs (the policy and
  price-list/topology objects).  Entries keep strong references to
  their context, so a hit requires the *same live objects* — two
  different policies can never alias.

Entries are evicted least-recently-used beyond ``maxsize``.  Cached
results are shared (not copied); callers must treat them as immutable.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Hashable, Iterable, Mapping

from repro.core.authorization import Policy
from repro.core.lineage import derived_lineage
from repro.core.plan import NodeMap, QueryPlan
from repro.core.operators import PlanNode

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.assignment import AssignmentResult

#: Objects compared by identity on lookup (kept alive by the entry).
Context = tuple[object, ...]

#: An entry's dependency footprint: the subjects whose views it read and
#: the attribute names those reads were restricted to (``None`` = all).
Dependencies = tuple[frozenset[str], "frozenset[str] | None"]


def requirements_signature(
    plan: QueryPlan,
    requirements: Mapping[PlanNode, frozenset[str]],
) -> tuple[tuple[str, ...], ...]:
    """Hashable per-operation ``Ap`` signature, in post-order."""
    requirement_map: NodeMap[frozenset[str]] = NodeMap(requirements)
    return tuple(
        tuple(sorted(requirement_map.get(node, frozenset())))
        for node in plan.operations()
    )


def plan_dependencies(
    plan: QueryPlan,
    subject_names: Iterable[str],
    user: str,
    owners: Mapping[str, str] | None = None,
) -> Dependencies:
    """The dependency footprint of an assignment over ``plan``.

    Subjects: every candidate assignee, the querying user, and the data
    owners.  Attributes: every base attribute of the plan's leaf
    relations plus every derived alias the plan introduces (a rule
    granting a same-named attribute on *any* relation changes
    ``Policy.view``'s by-name union, so name-level matching is exactly
    the right granularity).
    """
    subjects = set(subject_names)
    subjects.add(user)
    subjects.update((owners or {}).values())
    attributes: set[str] = set()
    for leaf in plan.leaves():
        attributes |= leaf.relation.attribute_set
    attributes.update(derived_lineage(plan))
    return frozenset(subjects), frozenset(attributes)


def assignment_cache_key(
    plan: QueryPlan,
    policy: Policy,
    subject_names: Iterable[str],
    user: str,
    owners: Mapping[str, str] | None,
    strategy: str,
    capabilities: Hashable,
    requirements: Mapping[PlanNode, frozenset[str]],
) -> tuple:
    """The value part of a cache key for one ``assign`` invocation.

    The policy participates via the reconcile path (and the identity
    context), not the key: entries outlive version bumps that provably
    do not touch their dependency footprint.
    """
    del policy  # identity-checked via the context; versions reconcile
    return (
        plan.fingerprint(),
        tuple(sorted(subject_names)),
        user,
        tuple(sorted((owners or {}).items())),
        strategy,
        capabilities,
        requirements_signature(plan, requirements),
    )


class _Entry:
    """One cached result with its reconcile bookkeeping."""

    __slots__ = ("context", "result", "version", "depends")

    def __init__(self, context: Context, result: object,
                 version: int | None,
                 depends: Dependencies | None) -> None:
        self.context = context
        self.result = result
        self.version = version
        self.depends = depends


class AssignmentCache:
    """An LRU over full assignment results, reconciled via policy deltas.

    Examples
    --------
    >>> cache = AssignmentCache(maxsize=2)
    >>> cache.put(("k",), (None,), "result")
    >>> cache.get(("k",), (None,))
    'result'
    >>> cache.get(("k",), ("other-context",)) is None
    True
    >>> cache.info()["hits"], cache.info()["misses"]
    (1, 1)
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._kept = 0
        self._evicted = 0
        self._flushed = 0

    def _reconcile(self, key: tuple, entry: _Entry,
                   policy: Policy) -> bool:
        """Whether ``entry`` survives the deltas since it was stored.

        Implements the module-level reconcile contract; surviving
        entries are rebased to the current version so later lookups walk
        only newer deltas.
        """
        if entry.version is None or entry.version == policy.version:
            return True
        deltas = policy.deltas_since(entry.version)
        if deltas is None:
            del self._entries[key]
            self._flushed += 1
            return False
        subjects, attributes = entry.depends or (frozenset(), None)
        if entry.depends is None or any(
            delta.touches(subjects, attributes) for delta in deltas
        ):
            del self._entries[key]
            self._evicted += 1
            return False
        entry.version = policy.version
        self._kept += 1
        return True

    def get(self, key: tuple, context: Context,
            policy: Policy | None = None) -> "AssignmentResult | None":
        """The cached result for ``key``, or ``None``.

        ``context`` must match the stored context object-for-object
        (``is``), guarding against id-collisions between distinct
        policies/price lists with equal value keys.  With ``policy``
        given, the entry is first reconciled against the delta journal
        (see the module docstring); without it, version-stamped entries
        miss whenever the stamp could be stale (safe default).
        """
        entry = self._entries.get(key)
        if entry is not None:
            if len(entry.context) == len(context) and all(
                stored is current
                for stored, current in zip(entry.context, context)
            ):
                if policy is not None:
                    if not self._reconcile(key, entry, policy):
                        self._misses += 1
                        return None
                elif entry.version is not None:
                    self._misses += 1
                    return None
                self._entries.move_to_end(key)
                self._hits += 1
                return entry.result
        self._misses += 1
        return None

    def put(self, key: tuple, context: Context, result: object,
            policy: Policy | None = None,
            depends: Dependencies | None = None) -> None:
        """Store ``result``, evicting the least recently used overflow.

        ``policy`` stamps the entry with the version it was computed at;
        ``depends`` is its dependency footprint (omitting it makes the
        entry die on any newer delta — conservative).
        """
        self._entries[key] = _Entry(
            tuple(context), result,
            None if policy is None else policy.version, depends,
        )
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop all entries (statistics are kept)."""
        self._entries.clear()

    def info(self) -> dict[str, int]:
        """Hit/miss/size counters plus reconcile statistics."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "size": len(self._entries),
            "maxsize": self.maxsize,
            "reconcile_kept": self._kept,
            "reconcile_evicted": self._evicted,
            "reconcile_flushed": self._flushed,
        }

    def __len__(self) -> int:
        return len(self._entries)
