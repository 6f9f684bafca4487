"""The one bounded LRU and the one policy reconcile every cache shares.

Leaf module: imports nothing from the package; a policy is anything
with ``version`` and ``deltas_since(version)``, a delta anything with
``touches(subjects, attributes)`` — in practice
:class:`~repro.core.authorization.Policy` and its journalled
:class:`~repro.core.authorization.PolicyDelta` records.

The reconcile contract
----------------------
A cached :class:`Entry` records the policy it was computed under, that
policy's version at the time, and a *dependency footprint*
``(subjects, attributes)``.  :func:`reconcile` gives one of four
verdicts on an entry against the live policy:

* ``CURRENT`` — same policy and version, or an entry never stamped;
* ``KEPT`` — no delta since the entry's version touches its footprint:
  the entry is rebased to the current version (``reconcile_kept``);
* ``EVICTED`` — some delta touches it, or it has no footprint to prove
  otherwise (``reconcile_evicted``);
* ``FLUSHED`` — the journal no longer reaches back to the entry's
  version, or the entry belongs to another policy object
  (``reconcile_flushed``).

Safety invariant
----------------
Every cache reconciling against the journal must be *conservative
toward eviction*: a revocation may never be under-invalidated.  An
entry may only survive a delta stream when its footprint is provably
disjoint from every delta, so the footprint must over-approximate what
the entry depends on, by attribute *name*, exactly as
:meth:`Policy.view <repro.core.authorization.Policy.view>` unions rules
by name.  When in doubt, evict; staleness bugs in an authorization
planner are security bugs.
"""

from __future__ import annotations

from collections import OrderedDict

CURRENT, KEPT, EVICTED, FLUSHED = "current", "kept", "evicted", "flushed"


class LRU:
    """A bounded mapping that drops its least recently *used* entry.

    Not thread-safe (owners hold their own lock); ``None`` means absent.
    """

    def __init__(self, maxsize: int) -> None:
        if not isinstance(maxsize, int) or maxsize < 1:
            raise ValueError(
                f"maxsize must be a positive integer, got {maxsize!r}")
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        self._hits = self._misses = 0

    def get(self, key, valid=None):
        """The value under ``key`` (a hit: recency refreshed) or ``None``;
        an entry ``valid(value)`` rejects is dropped and counts a miss."""
        value = self._data.get(key)
        if value is not None and (valid is None or valid(value)):
            self._data.move_to_end(key)
            self._hits += 1
            return value
        self._data.pop(key, None)
        self._misses += 1
        return None

    def peek(self, key):
        """The value under ``key`` without touching recency or counters."""
        return self._data.get(key)

    def put(self, key, value) -> None:
        """Store ``value`` as most recently used, evicting the overflow."""
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def values(self):
        """Live view of the stored values, least recently used first."""
        return self._data.values()

    def __len__(self) -> int:
        return len(self._data)

    def info(self) -> dict[str, int]:
        """The uniform counter shape every cache reports through."""
        return {"hits": self._hits, "misses": self._misses,
                "size": len(self._data), "maxsize": self.maxsize}


class Entry:
    """A cached value with its reconcile bookkeeping.

    ``policy=None`` leaves the entry unstamped (always ``CURRENT``);
    ``subjects=None`` means "no footprint": any newer delta evicts.
    """

    __slots__ = ("value", "policy", "version", "subjects", "attributes")

    def __init__(self, value, policy=None, subjects=None,
                 attributes=None) -> None:
        self.value = value
        self.policy = policy
        self.version = None if policy is None else policy.version
        self.subjects = subjects
        self.attributes = attributes


def reconcile(policy, entry: Entry) -> str:
    """The verdict of the module-level contract for ``entry``."""
    if entry.policy is None:
        return CURRENT
    if entry.policy is not policy:
        return FLUSHED
    if entry.version == policy.version:
        return CURRENT
    deltas = policy.deltas_since(entry.version)
    if deltas is None:
        return FLUSHED
    if entry.subjects is None or any(
            delta.touches(entry.subjects, entry.attributes)
            for delta in deltas):
        return EVICTED
    return KEPT


class Reconciler:
    """Applies :func:`reconcile` and keeps the shared counters."""

    def __init__(self) -> None:
        self.counts = {KEPT: 0, EVICTED: 0, FLUSHED: 0}

    def survives(self, policy, entry: Entry) -> bool:
        """Whether ``entry`` may still be served; a kept one is rebased."""
        verdict = reconcile(policy, entry)
        if verdict == CURRENT:
            return True
        self.counts[verdict] += 1
        if verdict == KEPT:
            entry.version = policy.version
        return verdict == KEPT

    def info(self, prefix: str = "reconcile_") -> dict[str, int]:
        return {prefix + verdict: count
                for verdict, count in self.counts.items()}
