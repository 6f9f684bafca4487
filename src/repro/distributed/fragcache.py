"""Whole-fragment results, kept per dispatch plan for repeated queries.

The runtime is built to be *long-lived*, with one result cache, kept per
dispatch plan and only as long as the plan itself is alive — the
repeat-query regime the service layer (:mod:`repro.service`) serves.
A fragment that misses is executed from scratch, re-running the
model-level check at every node.

The hit rule
------------
The dispatch plan holds one slot per (fragment, executing subject).
:meth:`FragmentCache.lookup` hits iff all of these hold:

* the *same plan object* is being run (the map is weak-keyed by plan: a
  plan nobody holds takes its results with it);
* the same (fragment id, subject) slot was filled before;
* it was filled under the same delivered key material (the payload's
  ``keys_signature``, compared by value);
* from the very same input tables, compared by ``is`` (a recomputed
  input is a fresh object and therefore a miss);
* and the entry survives the policy reconcile (the contract of
  :mod:`repro.core.cache`): disjoint from every ``grant``/``revoke``
  since it was stored, an entry is rebased and keeps hitting; touched,
  it dies and the fragment re-runs its enforcement checks.  A
  ``grant``/``revoke`` only kills the entries whose subject and
  attribute footprint it touches, never the whole cache, while
  revocations can never be under-invalidated.

The two insert fences
---------------------
``lookup`` hands back a *ticket* — the cache generation and the policy
version it saw — and :meth:`FragmentCache.store` drops the result unless
both still hold:

* **generation** — :meth:`FragmentCache.clear` (a node's ``tables`` or
  ``udfs`` changed in place, which is otherwise invisible to the key)
  bumps it, so a result computed from the pre-clear catalog by a run
  still in flight can never repopulate the cache;
* **policy version** — a ``grant``/``revoke`` that landed mid-run means
  the result's enforcement checks ran against the old policy.

Every insert is a complete-entry insert behind those fences, so an
aborted run leaves no partially-populated entry behind.
"""

from __future__ import annotations

import threading
import weakref
from typing import Mapping

from repro.core.authorization import Policy
from repro.core.cache import Entry, Reconciler
from repro.core.dispatch import DispatchPlan, SubQuery
from repro.core.lineage import Lineage
from repro.core.operators import PlanNode
from repro.engine.table import Table

#: What ``lookup`` saw: (cache generation, policy version).
Ticket = tuple[int, int]


def fragment_footprint(root: PlanNode, profiles: Mapping[PlanNode, object],
                       lineage: Lineage) -> frozenset[str]:
    """Attribute names a fragment's enforcement checks can read.

    The union of every profile component over the fragment subtree
    (boundary input nodes included), closed under lineage: a derived
    alias's visibility follows its source attribute, so the source
    belongs in the footprint even when it never appears in this
    fragment's own profiles.
    """
    attrs: set[str] = set()
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        profile = profiles.get(node)
        if profile is not None:
            attrs |= profile.visible_plaintext
            attrs |= profile.visible_encrypted
            attrs |= profile.implicit_plaintext
            attrs |= profile.implicit_encrypted
            for eq_class in profile.equivalences:
                attrs |= eq_class
        stack.extend(node.children)
    for name in list(attrs):
        source = lineage.get(name)
        if source is not None:
            attrs.add(source)
    return frozenset(attrs)


class FragmentCache:
    """The runtime's one result cache (contract: module docstring)."""

    def __init__(self, policy: Policy) -> None:
        self.policy = policy
        #: dispatch plan → {(fragment id, subject) → Entry}; an entry's
        #: value is ``(result, keys signature, input tables)``.
        self._plans: weakref.WeakKeyDictionary[
            DispatchPlan, dict[tuple[str, str], Entry]
        ] = weakref.WeakKeyDictionary()
        self._hits = 0
        self._misses = 0
        #: Kept / evicted / flushed counts of the fragment entries.
        self.reconciler = Reconciler()
        self._guard = threading.Lock()
        self._generation = 0

    def lookup(self, plan: DispatchPlan, fragment: SubQuery, signature,
               tables: tuple[Table, ...]) -> tuple[Table | None, Ticket]:
        """The memoized result (None on a miss) and the insert ticket."""
        slot = (fragment.fragment_id, fragment.subject)
        with self._guard:
            version = self.policy.version
            ticket = (self._generation, version)
            entries = self._plans.get(plan, {})
            entry = entries.get(slot)
            if entry is not None and entry.version != version:
                # The policy moved since this plan last ran: reconcile
                # all of its entries at once, so a delta that kills a
                # sibling's entry frees it now, looked up again or not.
                for dead in [key for key, cached in entries.items()
                             if not self.reconciler.survives(self.policy,
                                                             cached)]:
                    del entries[dead]
                entry = entries.get(slot)
            if entry is not None:
                result, stored_signature, stored = entry.value
                if (stored_signature == signature
                        and len(stored) == len(tables)
                        and all(a is b for a, b in zip(stored, tables))):
                    self._hits += 1
                    return result, ticket
            self._misses += 1
            return None, ticket

    def store(self, plan: DispatchPlan, fragment: SubQuery, signature,
              tables: tuple[Table, ...], result: Table,
              footprint: frozenset[str], ticket: Ticket) -> None:
        """Fill the slot, unless a fence moved since ``ticket``."""
        fresh = Entry((result, signature, tables), self.policy,
                      {fragment.subject}, footprint)
        with self._guard:
            if ticket == (self._generation, fresh.version):
                self._plans.setdefault(plan, {})[
                    (fragment.fragment_id, fragment.subject)] = fresh

    def clear(self) -> None:
        """Drop every memoized result and fence the runs in flight."""
        with self._guard:
            self._plans.clear()
            self._generation += 1

    def info(self) -> dict[str, int]:
        """Size, traffic and policy-reconcile counters."""
        with self._guard:
            return {
                "fragment_entries": sum(
                    len(entries) for entries in self._plans.values()),
                "fragment_hits": self._hits,
                "fragment_misses": self._misses,
                **self.reconciler.info("fragment_"),
            }
