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

The delta journal, the reconcile contract (kept / evicted / flushed) and
the safety invariant every reconciling cache obeys live in
:mod:`repro.core.cache`; this module adds what is particular to
assignments: the dependency footprint (:func:`plan_dependencies` — every
subject the assignment chose among, and every attribute name the plan
touches, derived aliases included) and the key/context split.

Key and context
---------------
* the **key** combines the plan object itself — the one
  :class:`~repro.service.QueryService` interned for the SQL text, which
  hashes by identity and fixes the per-node plaintext requirements and
  scheme choices — and the remaining value-like inputs of
  :func:`~repro.core.assignment.assign` (subjects, user, owners).  The
  key holds the plan, so a cached result's nodes are always the
  caller's nodes.  A structurally equal but distinct plan misses, and
  an entry whose plan has left the plan cache is unreachable and ages
  out of the LRU.  The policy version is deliberately *not* part of the
  key — versioning lives in the reconcile path;
* the **context** holds the identity-compared inputs (the policy and
  price-list objects).  Entries keep strong references to their
  context, so a hit requires the *same live objects* — two different
  policies can never alias.

Entries are evicted least-recently-used beyond ``maxsize``.  Cached
results are shared (not copied); callers must treat them as immutable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from repro.core.authorization import Policy
from repro.core.cache import LRU, Entry, Reconciler
from repro.core.lineage import derived_lineage
from repro.core.plan import QueryPlan

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.core.assignment import AssignmentResult

#: Objects compared by identity on lookup (kept alive by the entry).
Context = tuple[object, ...]

#: An entry's dependency footprint: the subjects whose views it read and
#: the attribute names those reads were restricted to (``None`` = all).
Dependencies = tuple[frozenset[str], "frozenset[str] | None"]


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
    subject_names: Iterable[str],
    user: str,
    owners: Mapping[str, str] | None,
) -> tuple:
    """The cache key of one ``assign`` invocation: the plan object plus
    the value-like inputs.

    The policy participates via the reconcile path (and the identity
    context), not the key: entries outlive version bumps that provably
    do not touch their dependency footprint.
    """
    return (
        plan,
        tuple(sorted(subject_names)),
        user,
        tuple(sorted((owners or {}).items())),
    )


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
        #: key → Entry whose value is ``(context, result)``.
        self._entries = LRU(maxsize)
        self._reconciler = Reconciler()

    def get(self, key: tuple, context: Context,
            policy: Policy | None = None) -> "AssignmentResult | None":
        """The cached result for ``key``, or ``None``.

        ``context`` must match the stored context object-for-object
        (``is``), guarding against id-collisions between distinct
        policies/price lists with equal value keys.  With ``policy``
        given, the entry is first reconciled against the delta journal
        (see :mod:`repro.core.cache`); without it, version-stamped
        entries miss (safe default).  An entry that cannot be served is
        dropped.
        """
        def servable(entry: Entry) -> bool:
            stored = entry.value[0]
            if len(stored) != len(context) or any(
                    old is not new for old, new in zip(stored, context)):
                return False
            if policy is None:
                return entry.policy is None
            return self._reconciler.survives(policy, entry)

        entry = self._entries.get(key, servable)
        return None if entry is None else entry.value[1]

    def put(self, key: tuple, context: Context, result: object,
            policy: Policy | None = None,
            depends: Dependencies | None = None) -> None:
        """Store ``result``, evicting the least recently used overflow.

        ``policy`` stamps the entry with the version it was computed at;
        ``depends`` is its dependency footprint (omitting it makes the
        entry die on any newer delta — conservative).
        """
        self._entries.put(key, Entry((tuple(context), result), policy,
                                     *(depends or (None, None))))

    def info(self) -> dict[str, int]:
        """Hit/miss/size counters plus reconcile statistics."""
        return {**self._entries.info(), **self._reconciler.info()}
