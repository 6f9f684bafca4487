"""Simulated multi-provider query execution with runtime enforcement.

Each subject of the scenario becomes a :class:`SubjectNode` with its own
RSA keypair, its own stored tables (for data authorities), and — crucially
— only the query keys its envelope delivered.  The
:class:`DistributedRuntime` drives a dispatch plan the way §6 describes:
the user seals one envelope per subject, carrying every sub-query that
subject runs for the query and its keys once; each subject opens its
envelope once per run, verifies the user's signature before acting on
anything in it, pulls its input fragments from the subjects below, and
evaluates its own operators locally.  What was opened lives in the run's
own context and is dropped with it.

Two enforcement layers make violations fail loudly rather than silently,
on every run — there is no switch that turns them off:

* **model-level** — before producing a relation, a subject re-checks
  Definition 4.1 against the relation's profile;
* **value-level** — on receiving a table, a subject verifies it can
  legitimately see every column in the representation it arrives in
  (plaintext columns require plaintext authorization, encrypted columns
  at least encrypted authorization).

Together they turn the paper's theorems into executable assertions.

Scheduling
----------
A run is one demand-driven recursion on the calling thread, exactly the
nested ``req`` calls of Figure 8: the user asks the root fragment's
subject, which asks the subjects below it, one fragment at a time, so
the trace order is deterministic.  Concurrency is between runs: any
number of threads may call :meth:`DistributedRuntime.run` on one
runtime, and a per-subject lock serializes the fragments of any one
subject across them (a simulated provider serves one sub-query at a
time).

The runtime is also built to be *long-lived*, with one result cache,
kept per dispatch plan and only as long as the plan itself is alive:
a whole fragment result is reused when the same fragment of the same
dispatch plan arrives again at the same subject with the same key
material and identical inputs — the repeat-query regime the service
layer (:mod:`repro.service`) serves.  A fragment that misses is
executed from scratch by a fresh
:class:`~repro.engine.executor.Executor` built from its opened envelope,
re-running the model-level check at every node.  Policy churn is
absorbed by reconciling each entry against the policy's delta journal
on lookup (the contract of :mod:`repro.core.cache`): a
``grant``/``revoke`` only kills the entries whose subject and attribute
footprint it touches, never the whole cache, while revocations can never
be under-invalidated.

Failover contract
-----------------
Providers are treated as unreliable production services.  Every fragment
execution feeds a per-subject :class:`~repro.distributed.health.HealthRegistry`
(latency EWMA, consecutive errors, a closed/open/half-open circuit
breaker), and a seedable
:class:`~repro.distributed.faults.FaultInjector` can be wired in to make
chaos runs deterministic.  Failures are classified strictly:

* :class:`~repro.exceptions.TransientProviderError` is the **only**
  retryable failure.  It is retried on the same subject with bounded
  exponential backoff and deterministic jitter (:class:`RetryPolicy`),
  within the per-fragment deadline.  Envelope tampering/spoofing
  (:class:`~repro.exceptions.DispatchError`) and authorization
  violations (:class:`~repro.exceptions.UnauthorizedError`) are *never*
  retried — a forged message or a policy violation is not a fault that
  repeats its way to success.
* :class:`~repro.exceptions.ProviderDeadError` (or an exhausted retry
  budget, or an open breaker) escalates to **mid-query failover**: only
  the failed fragment is re-dispatched; every upstream fragment result
  already computed is kept and fed to the replacement.

Failover may never widen visibility.  A replacement subject S′ is
acceptable only if the repaired assignment — the extended plan's
assignment with the failed fragment's operations moved to S′ — passes
:func:`~repro.core.visibility.verify_assignment` (Definition 4.2 against
the extended plan's *actual* profiles), so S′ is authorized for every
operand and result it would now see, in the exact representation it
would see them.  The re-dispatch re-derives, for just that fragment: a
fresh envelope sealed for S′ containing the fragment text and the key
subset its encryption/decryption operations name, the replacement's
augmented view for the runtime enforcement checks, and a fragment-cache
key under the new subject.  When no authorized replacement exists the
runtime raises
:class:`~repro.exceptions.ProviderUnavailableError`; the service layer
(:mod:`repro.service`) then tries its warm standby plans (the other §6
portfolio assignments) and finally a full re-plan over the healthy
subject pool, raising
:class:`~repro.exceptions.UnrecoverableAssignmentError` only when no
authorized candidate remains.

Time is injectable (``clock``/``sleeper``): simulated provider latency,
backoff sleeps, deadlines, and breaker timeouts all go through the two
callables, so resilience tests run fast and deterministic.

Budgets and cancellation
------------------------
``run`` accepts a :class:`~repro.core.budget.CancellationToken` and
honors it cooperatively (the checkpoint contract lives in
:mod:`repro.core.budget`): the token is checked before envelopes are
sealed, at every fragment boundary, at every retry iteration, after each
simulated-latency sleep, and at every failover candidate; it is
additionally scoped to the evaluating thread (``token_scope``) so
chunked parallel maps deep inside the executor observe it between
chunks.  Simulated-latency and backoff sleeps are
clamped to the *remaining* query budget (and to the per-fragment
deadline), so a sleep can never overshoot either.  An abort unwinds as
:class:`~repro.exceptions.DeadlineExceededError` /
:class:`~repro.exceptions.QueryCancelledError` with the partial
:class:`ExecutionTrace` attached; because every cache insert along the
way is a complete-entry insert behind the same generation/version
fences that guard policy churn, an aborted run leaves no
partially-populated fragment-cache entry behind.
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.core.authorization import Policy, Subject, SubjectView
from repro.core.budget import CancellationToken, token_scope
from repro.core.cache import Entry, Reconciler
from repro.core.dispatch import DispatchPlan, SubQuery
from repro.core.extension import ExtendedPlan
from repro.core.keys import KeyAssignment
from repro.core.lineage import Lineage, augment_view, derived_lineage
from repro.core.operators import BaseRelationNode, PlanNode
from repro.core.visibility import check_relation, verify_assignment
from repro.crypto.keymanager import DistributedKeys, KeyStore
from repro.crypto.rsa import (
    DEFAULT_RSA_BITS,
    RsaPrivateKey,
    RsaPublicKey,
    generate_keypair,
)
from repro.distributed.faults import FaultInjector
from repro.distributed.health import HealthRegistry, RetryPolicy
from repro.distributed.messages import (
    SubQueryPayload,
    open_envelope,
    seal_envelope,
)
from repro.engine.executor import Executor, UdfCallable
from repro.engine.table import Table
from repro.parallel.pool import shared_pool
from repro.engine.values import EncryptedAggregate, EncryptedValue
from repro.exceptions import (
    DispatchError,
    ProviderDeadError,
    ProviderUnavailableError,
    QueryAbortedError,
    TransientProviderError,
    UnauthorizedError,
)


@dataclass
class SubjectNode:
    """One participant: identity, RSA keys, stored data, local state.

    ``latency_seconds`` simulates the per-fragment round-trip/processing
    delay of a real remote provider; a run pays the sum over its
    fragments, and concurrent runs overlap theirs on different subjects.
    """

    subject: Subject
    rsa_public: RsaPublicKey
    rsa_private: RsaPrivateKey
    tables: dict[str, Table] = field(default_factory=dict)
    udfs: dict[str, UdfCallable] = field(default_factory=dict)
    latency_seconds: float = 0.0

    @classmethod
    def create(cls, subject: Subject,
               tables: Mapping[str, Table] | None = None,
               udfs: Mapping[str, UdfCallable] | None = None,
               rsa_bits: int = DEFAULT_RSA_BITS,
               rsa_keys: tuple[RsaPublicKey, RsaPrivateKey] | None = None,
               latency_seconds: float = 0.0) -> "SubjectNode":
        """Create a node, generating an RSA keypair unless one is given.

        ``rsa_keys`` lets long-lived deployments (the service layer,
        repeated-query benchmarks) generate each subject's keypair once
        and reuse it instead of paying keygen per construction.
        """
        if rsa_keys is None:
            rsa_keys = generate_keypair(rsa_bits)
        public, private = rsa_keys
        return cls(
            subject=subject,
            rsa_public=public,
            rsa_private=private,
            tables=dict(tables or {}),
            udfs=dict(udfs or {}),
            latency_seconds=latency_seconds,
        )

    @property
    def name(self) -> str:
        return self.subject.name


@dataclass
class FailoverEvent:
    """One mid-query fragment re-dispatch, for tracing and audit.

    ``repaired_assignment`` is the full extended-plan assignment after
    the takeover (the mapping :func:`verify_assignment` approved), so
    auditors can re-verify independently that the re-dispatch never
    widened visibility.
    """

    fragment_id: str
    failed_subject: str
    replacement: str
    attempts: int
    seconds: float
    repaired_assignment: dict[PlanNode, str] = field(default_factory=dict)
    verified: bool = True


@dataclass
class ExecutionTrace:
    """Observability: what moved where during a distributed run."""

    #: Sealed envelopes (one per subject, plus one per failover reseal)
    #: and inter-fragment table transfers.
    messages: int = 0
    #: Total size of those envelopes.
    envelope_bytes: int = 0
    rows_transferred: int = 0
    #: Every (fragment id, subject) requested, in call order, cache hits
    #: and failover takeovers included.
    fragments_run: list[tuple[str, str]] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    fragment_cache_hits: int = 0
    #: Fragment execution attempts (first tries + retries; cache hits
    #: excluded — they never touch a provider).
    attempts: int = 0
    #: Transient-fault retries on the same subject.
    retries: int = 0
    #: Circuit-breaker trips (including permanent provider deaths).
    breaker_trips: int = 0
    #: Mid-query fragment re-dispatches, in completion order.
    failovers: list[FailoverEvent] = field(default_factory=list)


class _FragmentFailed(Exception):
    """Internal control flow: a fragment exhausted its subject.

    Raised out of :meth:`DistributedRuntime._evaluate_fragment` *while
    the subject lock is held*; the recursion catches it after releasing
    the lock and runs failover lock-free (the replacement takes its own
    subject lock), so the failovers of two concurrent runs can never
    deadlock on each other's subject locks.  Never escapes ``run``.
    """

    def __init__(self, subject: str, attempts: int,
                 cause: Exception | None = None) -> None:
        super().__init__(f"fragment failed at {subject}")
        self.subject = subject
        self.attempts = attempts
        self.cause = cause


@dataclass
class _RunContext:
    """Per-``run`` state, touched by the thread that called ``run`` only."""

    dispatch_plan: DispatchPlan
    #: Recipient subject → its sealed envelope for this run.
    envelopes: dict[str, bytes]
    profiles: Mapping[PlanNode, object]
    lineage: Lineage
    constant_store: KeyStore | None
    trace: ExecutionTrace
    user: str
    user_node: SubjectNode
    #: The extended plan under execution; failover repairs (and
    #: re-verifies) its assignment when a fragment loses its provider.
    extended: ExtendedPlan | None = None
    #: The query's cancellation token (None = unbudgeted, no checks).
    token: CancellationToken | None = None
    #: Subject → the payload it unwrapped and verified from its envelope,
    #: written under the subject's lock.  Per run by design: a repeated
    #: query is delivered, unwrapped and verified again.
    opened: dict[str, SubQueryPayload] = field(default_factory=dict)


class DistributedRuntime:
    """Executes dispatch plans across simulated subjects.

    Parameters
    ----------
    clock / sleeper:
        Injectable time sources (defaults: :func:`time.monotonic` and
        :func:`time.sleep`).  Simulated provider latency, retry backoff,
        fragment deadlines, and breaker timeouts all go through these,
        so tests can drive them with a fake clock instead of sleeping.
    health:
        A shared :class:`~repro.distributed.health.HealthRegistry`; one
        is created (on ``clock``) when not given.
    fault_injector:
        Optional :class:`~repro.distributed.faults.FaultInjector`
        consulted before every fragment execution.
    retry:
        The :class:`~repro.distributed.health.RetryPolicy` for transient
        faults (attempts, backoff, per-fragment deadline).
    failover:
        When True (default), a fragment whose subject is lost is
        re-dispatched in place to the next authorized candidate (see the
        module docstring's failover contract); when False the failure
        surfaces immediately as
        :class:`~repro.exceptions.ProviderUnavailableError`.
    workers:
        Data-plane worker processes for the column-crypto kernels.
        Every subject's executor is built over the same
        :func:`~repro.parallel.pool.shared_pool`, so per-subject
        fragments and intra-fragment column chunks draw from one bounded
        set of processes instead of multiplying pools.  ``0`` (the
        default) is inline single-core execution.
    """

    def __init__(self, policy: Policy, nodes: Mapping[str, SubjectNode],
                 user: str, clock=None, sleeper=None,
                 health: HealthRegistry | None = None,
                 fault_injector: FaultInjector | None = None,
                 retry: RetryPolicy | None = None,
                 failover: bool = True,
                 workers: int = 0) -> None:
        self.policy = policy
        self.pool = shared_pool(workers)
        self.nodes = dict(nodes)
        self.user = user
        self._clock = clock or time.monotonic
        self._sleep = sleeper or time.sleep
        self.health = health or HealthRegistry(clock=self._clock)
        self.fault_injector = fault_injector
        self.retry_policy = retry or RetryPolicy()
        self.failover_enabled = failover
        #: Optional observability sink (see :meth:`attach_metrics`).
        self._metrics_sink = None
        if user not in self.nodes:
            raise DispatchError(f"no runtime node for user {user!r}")
        self._subject_locks: dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        #: dispatch plan → {(fragment id, subject) → Entry}; an entry's
        #: value is ``(result, keys signature, input tables)``.
        #: Weak-keyed: a plan nobody holds takes its results with it.
        self._fragments: weakref.WeakKeyDictionary[
            DispatchPlan, dict[tuple[str, str], Entry]
        ] = weakref.WeakKeyDictionary()
        self._fragment_hits = 0
        self._fragment_misses = 0
        #: Kept / evicted / flushed counts of the fragment entries.
        self.reconciler = Reconciler()
        self._caches_guard = threading.Lock()
        # Bumped by invalidate_caches(); inserts check it so an entry
        # computed from a pre-invalidation catalog snapshot can never
        # repopulate the cache after the clear.
        self._cache_generation = 0

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, dispatch_plan: DispatchPlan, extended: ExtendedPlan,
            keys: KeyAssignment, distributed_keys: DistributedKeys,
            *, user: str | None = None,
            token: CancellationToken | None = None,
            ) -> tuple[Table, ExecutionTrace]:
        """Seal envelopes, execute every fragment, return the result.

        The user signs one payload per subject — all of that subject's
        sub-queries and its keys — and encrypts it for the subject;
        fragments then execute by demand-driven root-down recursion,
        exactly the nested ``req`` calls of Figure 8.

        ``token`` makes the run budget-aware: it is checked at every
        cooperative checkpoint (see the module docstring), and an abort
        raises :class:`~repro.exceptions.DeadlineExceededError` /
        :class:`~repro.exceptions.QueryCancelledError` with the partial
        trace attached.

        The returned table is the caller's own copy: fragment results
        are memoized and shared across runs internally, so the delivered
        table is detached from the caches before it is handed out.
        """
        user = user or self.user
        user_node = self._node_for(user)
        trace = ExecutionTrace()
        context = _RunContext(
            dispatch_plan=dispatch_plan,
            envelopes={},
            profiles=extended.plan.profiles(),
            lineage=derived_lineage(extended.plan),
            constant_store=distributed_keys.master,
            trace=trace,
            user=user,
            user_node=user_node,
            extended=extended,
            token=token,
        )

        try:
            self._checkpoint(context, "runtime:dispatch")
            batches: dict[str, list[SubQuery]] = {}
            for fragment in dispatch_plan.fragments.values():
                batches.setdefault(fragment.subject, []).append(fragment)
            for subject, (first, *rest) in batches.items():
                subject_node = self._node_for(subject)
                payload = SubQueryPayload(
                    fragment_id=first.fragment_id,
                    query_text=first.text,
                    keystore=distributed_keys.store_for(subject),
                    more=tuple((f.fragment_id, f.text) for f in rest),
                )
                blob = seal_envelope(
                    payload, user_node.rsa_private, subject_node.rsa_public
                )
                context.envelopes[subject] = blob
                trace.messages += 1
                trace.envelope_bytes += len(blob)

            result = self._run_fragment(
                context, dispatch_plan.root_fragment_id)
        except QueryAbortedError as abort:
            # Hand the caller whatever ran before the abort: the partial
            # trace is the audit record of the fragments already paid for.
            if abort.trace is None:
                abort.trace = trace
            raise

        # Final delivery to the user: the user must be entitled to the
        # root relation, and to every column representation it contains.
        root_view = augment_view(self.policy.view(user), context.lineage)
        self._check_profile(
            root_view, context.profiles[extended.plan.root],
            "query result", trace,
        )
        self._check_values(root_view, result, trace)
        trace.rows_transferred += len(result)
        # The result may live in (and be served again from) the fragment
        # cache; Table.rows is a public mutable list, so hand the caller
        # a private copy rather than the cached object itself.
        return result.copy(), trace

    def invalidate_caches(self) -> None:
        """Drop every memoized fragment result.

        Call after changing a :class:`SubjectNode`'s ``tables`` or
        ``udfs`` in place: cached fragment results were computed from
        the old data, which is otherwise invisible to the cache key.
        A run in flight during the call cannot re-insert entries built
        from the old catalog: inserts are fenced on a generation counter
        this method bumps.
        """
        with self._caches_guard:
            self._fragments.clear()
            self._cache_generation += 1

    def cache_info(self) -> dict[str, int]:
        """Fragment-cache size, traffic and policy-reconcile counters."""
        with self._caches_guard:
            return {
                "fragment_entries": sum(
                    len(entries) for entries in self._fragments.values()),
                "fragment_hits": self._fragment_hits,
                "fragment_misses": self._fragment_misses,
                **self.reconciler.info("fragment_"),
            }

    def health_info(self) -> dict[str, dict[str, object]]:
        """Per-subject health snapshot (breaker state, EWMA, counters)."""
        return self.health.snapshot()

    def attach_metrics(self, sink) -> None:
        """Attach an observability sink for per-fragment latencies.

        ``sink.observe_fragment(subject, seconds)`` is called once per
        successful fragment execution with the measured wall time (the
        same measurement that feeds the health registry's EWMA).  The
        sink must be thread-safe — concurrent runs complete fragments on
        their own threads — and cheap: it runs on the fragment's
        critical path.
        Pass ``None`` to detach.
        """
        self._metrics_sink = sink

    @staticmethod
    def _fragment_footprint(root: PlanNode,
                            context: _RunContext) -> frozenset[str]:
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
            profile = context.profiles.get(node)
            if profile is not None:
                attrs |= profile.visible_plaintext
                attrs |= profile.visible_encrypted
                attrs |= profile.implicit_plaintext
                attrs |= profile.implicit_encrypted
                for eq_class in profile.equivalences:
                    attrs |= eq_class
            stack.extend(node.children)
        for name in list(attrs):
            source = context.lineage.get(name)
            if source is not None:
                attrs.add(source)
        return frozenset(attrs)

    # ------------------------------------------------------------------
    # Schedule
    # ------------------------------------------------------------------
    @staticmethod
    def _checkpoint(context: _RunContext, where: str) -> None:
        """Cooperative cancellation checkpoint (no-op without a token)."""
        if context.token is not None:
            context.token.check(where)

    def _run_fragment(self, context: _RunContext,
                      fragment_id: str) -> Table:
        """Demand-driven recursion: ask the children, then evaluate."""
        self._checkpoint(context, f"runtime:fragment {fragment_id}")
        fragment = context.dispatch_plan.fragment(fragment_id)
        node = self._node_for(fragment.subject)
        lock = self._lock_for(fragment.subject)
        with lock:
            payload = self._open_and_record(context, fragment, node)
        view = augment_view(self.policy.view(fragment.subject),
                            context.lineage)
        inputs: dict[int, Table] = {}
        for boundary_id, child_fragment_id in fragment.requests.items():
            table = self._run_fragment(context, child_fragment_id)
            self._receive_input(context, fragment, view, table)
            inputs[boundary_id] = table
        # The subject lock serializes this subject's fragments across
        # concurrent runs; it is taken around the open and the evaluation
        # only (never while recursing into children) so same-subject
        # nesting cannot deadlock.
        try:
            with lock:
                return self._evaluate_fragment(context, fragment, node,
                                               payload, view, inputs)
        except _FragmentFailed as failure:
            return self._failover_fragment(context, fragment, inputs,
                                           failure)

    # ------------------------------------------------------------------
    # Fragment execution
    # ------------------------------------------------------------------
    def _open_and_record(self, context: _RunContext, fragment: SubQuery,
                         node: SubjectNode,
                         resealed: bytes | None = None) -> SubQueryPayload:
        """What ``node`` was sent for ``fragment`` (caller holds its lock).

        The subject unwraps its envelope and verifies the user's
        signature once per run; its other fragments reuse the opened
        payload.  ``resealed`` is a failover envelope carrying this
        fragment alone: opened on its own and never shared, whatever the
        replacement already holds.
        """
        user_public = context.user_node.rsa_public
        if resealed is not None:
            payload = open_envelope(resealed, node.rsa_private, user_public)
        elif (payload := context.opened.get(fragment.subject)) is None:
            payload = context.opened[fragment.subject] = open_envelope(
                context.envelopes[fragment.subject], node.rsa_private,
                user_public)
        if not payload.carries(fragment.fragment_id):
            raise DispatchError(
                f"{fragment.subject} was sent no sub-query "
                f"{fragment.fragment_id!r}")
        context.trace.fragments_run.append(
            (fragment.fragment_id, fragment.subject))
        return payload

    def _receive_input(self, context: _RunContext, fragment: SubQuery,
                       view: SubjectView, table: Table) -> None:
        context.trace.messages += 1
        context.trace.rows_transferred += len(table)
        if not fragment.subject.startswith("authority:"):
            self._check_values(view, table, context.trace)

    def _evaluate_fragment(self, context: _RunContext, fragment: SubQuery,
                           node: SubjectNode, payload: SubQueryPayload,
                           view: SubjectView,
                           inputs: dict[int, Table]) -> Table:
        """Evaluate one fragment, reusing a memoized whole-fragment result.

        The dispatch plan holds one slot per (fragment, executing
        subject).  The slot hits iff it was filled under the same
        delivered key material, from the very same input tables (a
        recomputed input is a fresh object and therefore a miss), and
        the entry survives the policy reconcile: disjoint
        from every ``grant``/``revoke`` since it was stored, an entry is
        rebased and keeps hitting; touched, it dies and the fragment
        re-runs its enforcement checks.
        """
        slot = (fragment.fragment_id, fragment.subject)
        tables = tuple(inputs.values())
        plan = context.dispatch_plan
        with self._caches_guard:
            generation = self._cache_generation
            version = self.policy.version
            entries = self._fragments.get(plan, {})
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
                result, signature, stored = entry.value
                if not (signature == payload.keys_signature
                        and len(stored) == len(tables)
                        and all(a is b for a, b in zip(stored, tables))):
                    entry = None
            if entry is None:
                self._fragment_misses += 1
            else:
                self._fragment_hits += 1
        if entry is not None:
            context.trace.fragment_cache_hits += 1
            return result
        result = self._execute_with_retries(context, fragment, node,
                                            payload, view, inputs)
        fresh = Entry(
            (result, payload.keys_signature, tables),
            self.policy, {fragment.subject},
            self._fragment_footprint(fragment.root, context))
        with self._caches_guard:
            # Skip the insert if invalidate_caches() ran meanwhile —
            # this result may have been computed from the
            # pre-invalidation catalog.  The same goes for a result
            # whose policy version is already superseded (a grant/revoke
            # landed mid-run): its enforcement checks ran against the
            # old policy.
            if self._cache_generation == generation \
                    and fresh.version == version:
                self._fragments.setdefault(plan, {})[slot] = fresh
        return result

    def _execute_with_retries(self, context: _RunContext,
                              fragment: SubQuery, node: SubjectNode,
                              payload: SubQueryPayload, view: SubjectView,
                              inputs: dict[int, Table]) -> Table:
        """Run one fragment on its subject, absorbing transient faults.

        Only :class:`TransientProviderError` is retried (bounded
        attempts, exponential backoff with deterministic jitter, within
        the per-fragment deadline *and* the remaining query budget).  A
        dead provider, an open breaker, or an exhausted budget raises
        :class:`_FragmentFailed` so the caller can fail the fragment
        over after releasing the subject lock.  Any other exception
        (tampering, authorization violations, executor bugs) propagates
        untouched — retrying a forged envelope or a policy violation
        must never happen.  A budget abort
        (:class:`~repro.exceptions.QueryAbortedError` raised by a
        checkpoint) also takes that path: it says nothing about the
        provider's health, so the probe slot is released and the abort
        unwinds unretried.
        """
        subject = fragment.subject
        retry = self.retry_policy
        token = context.token
        deadline = None
        if retry.fragment_deadline_seconds is not None:
            deadline = self._clock() + retry.fragment_deadline_seconds
        attempts = 0
        while True:
            self._checkpoint(
                context,
                f"runtime:fragment {fragment.fragment_id} "
                f"attempt {attempts + 1}")
            if not self.health.admit(subject):
                raise _FragmentFailed(
                    subject, attempts,
                    cause=ProviderDeadError(
                        f"provider {subject} is out of rotation "
                        f"(breaker {self.health.state(subject)})",
                        subject=subject))
            attempts += 1
            context.trace.attempts += 1
            started = self._clock()
            try:
                extra = 0.0
                if self.fault_injector is not None:
                    extra = self.fault_injector.on_execute(subject)
                delay = node.latency_seconds + extra
                if delay:
                    # Clamp the simulated provider round-trip to the
                    # remaining budget: past the deadline the response
                    # is worthless, so the checkpoint below aborts
                    # without waiting out the rest of the latency.
                    if token is not None:
                        delay = token.clamp(delay)
                    if delay:
                        self._sleep(delay)
                    self._checkpoint(
                        context,
                        f"runtime:fragment {fragment.fragment_id} "
                        f"response")
                executor = Executor(
                    node.tables, keystore=payload.keystore, udfs=node.udfs,
                    constant_keystore=context.constant_store,
                    pool=self.pool,
                )
                with token_scope(token):
                    result = self._evaluate(context, fragment,
                                            fragment.root, executor,
                                            inputs, view)
            except TransientProviderError as fault:
                if self.health.record_failure(subject):
                    context.trace.breaker_trips += 1
                out_of_time = (deadline is not None
                               and self._clock() >= deadline)
                if (attempts >= retry.max_attempts or out_of_time
                        or not self.health.available(subject)):
                    raise _FragmentFailed(subject, attempts, cause=fault)
                context.trace.retries += 1
                # The backoff sleep draws from whatever budget is
                # tighter — the per-fragment deadline or the remaining
                # end-to-end query budget — and can overshoot neither.
                remaining = None
                if deadline is not None:
                    remaining = max(0.0, deadline - self._clock())
                if token is not None:
                    budget_left = token.remaining_seconds()
                    if budget_left is not None:
                        remaining = budget_left if remaining is None \
                            else min(remaining, budget_left)
                self._sleep(retry.backoff(
                    attempts, salt=f"{fragment.fragment_id}:{subject}",
                    remaining_seconds=remaining))
                if deadline is not None and self._clock() >= deadline:
                    # The (clamped) sleep consumed the fragment's whole
                    # deadline; another attempt could not finish in time.
                    raise _FragmentFailed(subject, attempts, cause=fault)
                continue
            except ProviderDeadError as fault:
                if self.health.mark_dead(subject):
                    context.trace.breaker_trips += 1
                raise _FragmentFailed(subject, attempts, cause=fault)
            except Exception:
                # No health verdict: the failure says nothing about the
                # provider (e.g. an authorization violation raised by
                # our own enforcement).  Just release any probe slot.
                self.health.release_probe(subject)
                raise
            elapsed = self._clock() - started
            self.health.record_success(subject, elapsed)
            sink = self._metrics_sink
            if sink is not None:
                sink.observe_fragment(subject, elapsed)
            return result

    # ------------------------------------------------------------------
    # Mid-query failover
    # ------------------------------------------------------------------
    def _failover_fragment(self, context: _RunContext, fragment: SubQuery,
                           inputs: dict[int, Table],
                           failure: _FragmentFailed) -> Table:
        """Re-dispatch a failed fragment to the next authorized candidate.

        Walks healthy candidate subjects (cheapest latency EWMA first)
        and, for each: repairs the extended plan's assignment by moving
        the fragment's operations to the candidate, gates the repair
        with :func:`verify_assignment` (Definition 4.2 on the extended
        plan's actual profiles — failover may never widen visibility),
        reseals the fragment envelope for the candidate with exactly the
        key subset the fragment's operations name, and re-executes just
        this fragment with the already-computed input tables.  The
        caller must *not* hold the failed subject's lock.
        """
        if not self.failover_enabled or context.extended is None:
            raise self._unavailable(context, fragment, failure,
                                    {failure.subject})
        started = self._clock()
        extended = context.extended
        excluded = {failure.subject}
        attempts = failure.attempts
        operations = [n for n in fragment.nodes
                      if n in extended.assignment]
        base_relations = [n for n in fragment.nodes
                          if isinstance(n, BaseRelationNode)]
        while True:
            self._checkpoint(
                context, f"runtime:failover {fragment.fragment_id}")
            candidate = self._next_candidate(
                context, fragment, excluded, base_relations, operations)
            if candidate is None:
                raise self._unavailable(context, fragment, failure,
                                        excluded)
            excluded.add(candidate)
            candidate_node = self.nodes[candidate]
            repaired = dict(extended.assignment)
            for operation in operations:
                repaired[operation] = candidate
            try:
                verify_assignment(extended.plan, self.policy, repaired)
            except UnauthorizedError:
                continue
            store = None
            if context.constant_store is not None:
                store = context.constant_store.subset(fragment.key_names)
            payload = SubQueryPayload(
                fragment_id=fragment.fragment_id,
                query_text=fragment.text,
                keystore=store,
            )
            blob = seal_envelope(payload, context.user_node.rsa_private,
                                 candidate_node.rsa_public)
            context.trace.messages += 1
            context.trace.envelope_bytes += len(blob)
            takeover = replace(fragment, subject=candidate)
            view = augment_view(self.policy.view(candidate),
                                context.lineage)
            try:
                with self._lock_for(candidate):
                    opened = self._open_and_record(context, takeover,
                                                   candidate_node, blob)
                    for table in inputs.values():
                        self._receive_input(context, takeover, view, table)
                    result = self._evaluate_fragment(
                        context, takeover, candidate_node, opened, view,
                        inputs)
            except _FragmentFailed as next_failure:
                attempts += next_failure.attempts
                continue
            event = FailoverEvent(
                fragment_id=fragment.fragment_id,
                failed_subject=failure.subject,
                replacement=candidate,
                attempts=attempts,
                seconds=self._clock() - started,
                repaired_assignment=repaired,
            )
            context.trace.failovers.append(event)
            return result

    def _next_candidate(self, context: _RunContext, fragment: SubQuery,
                        excluded: set[str],
                        base_relations: list[PlanNode],
                        operations: list[PlanNode]) -> str | None:
        """The next failover candidate to try, or None when exhausted.

        Candidates are runtime subjects that are not excluded, not
        synthetic authorities, currently available per the health
        registry, and hold every base relation the fragment reads
        locally (a fragment embedding stored data can only move to a
        subject that stores the same relations).  Ordered by latency
        EWMA then name, so failover prefers the fastest healthy
        provider deterministically; the querying user is kept as the
        last resort — pulling computation back to the client defeats
        the outsourcing the assignment paid for.
        """
        candidates = []
        for name, node in self.nodes.items():
            if name in excluded or name.startswith("authority:"):
                continue
            if not self.health.available(name):
                continue
            if any(b.relation.name not in node.tables
                   for b in base_relations):
                continue
            candidates.append(name)
        if not candidates:
            return None
        candidates.sort(key=lambda n: (n == context.user,
                                       self.health.latency_hint(n), n))
        return candidates[0]

    def _unavailable(self, context: _RunContext, fragment: SubQuery,
                     failure: _FragmentFailed,
                     excluded: set[str]) -> ProviderUnavailableError:
        """Terminal runtime failure for one fragment (service escalates)."""
        return ProviderUnavailableError(
            f"fragment {fragment.fragment_id} lost provider "
            f"{failure.subject!r} and no authorized replacement is "
            f"available (tried {', '.join(sorted(excluded))})",
            subject=failure.subject,
            fragment_id=fragment.fragment_id,
            excluded=frozenset(excluded),
            trace=context.trace,
        )

    def _evaluate(self, context: _RunContext, fragment: SubQuery,
                  node: PlanNode, executor: Executor,
                  inputs: dict[int, Table], view: SubjectView) -> Table:
        if id(node) in inputs:
            return inputs[id(node)]
        children = [
            self._evaluate(context, fragment, child, executor, inputs, view)
            for child in node.children
        ]
        result = executor.execute_node(node, children)
        if not isinstance(node, BaseRelationNode) \
                and not fragment.subject.startswith("authority:"):
            self._check_profile(
                view, context.profiles[node],
                f"relation at {node.label()}", context.trace,
            )
        return result

    # ------------------------------------------------------------------
    # Enforcement
    # ------------------------------------------------------------------
    def _node_for(self, subject: str) -> SubjectNode:
        if subject not in self.nodes:
            raise DispatchError(f"no runtime node for subject {subject!r}")
        return self.nodes[subject]

    def _lock_for(self, subject: str) -> threading.Lock:
        with self._locks_guard:
            lock = self._subject_locks.get(subject)
            if lock is None:
                lock = threading.Lock()
                self._subject_locks[subject] = lock
            return lock

    def _check_profile(self, view: SubjectView, profile, context: str,
                       trace: ExecutionTrace) -> None:
        check = check_relation(view, profile)
        if not check.authorized:
            trace.violations.extend(check.violations)
            raise UnauthorizedError(
                f"{view.subject} is not authorized for {context}: "
                + "; ".join(check.violations),
                subject=view.subject,
                violations=check.violations,
            )

    def _check_values(self, view: SubjectView, table: Table,
                      trace: ExecutionTrace) -> None:
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


def generate_subject_keys(
    subjects: list[Subject] | list[str], rsa_bits: int = DEFAULT_RSA_BITS,
) -> dict[str, tuple[RsaPublicKey, RsaPrivateKey]]:
    """One RSA keypair per subject, generated once for reuse.

    Long-lived deployments (the service layer, repeated-query benchmarks)
    pass the result to :func:`build_runtime` via ``rsa_keys`` so node
    construction stops paying keygen per query run.
    """
    names = [s.name if isinstance(s, Subject) else s for s in subjects]
    return {name: generate_keypair(rsa_bits) for name in names}


def build_runtime(policy: Policy, subjects: list[Subject],
                  authority_tables: Mapping[str, Mapping[str, Table]],
                  user: str,
                  udfs: Mapping[str, UdfCallable] | None = None,
                  rsa_bits: int = DEFAULT_RSA_BITS,
                  rsa_keys: Mapping[
                      str, tuple[RsaPublicKey, RsaPrivateKey]] | None = None,
                  latency_seconds: float | Mapping[str, float] = 0.0,
                  clock=None, sleeper=None,
                  health: HealthRegistry | None = None,
                  fault_injector: FaultInjector | None = None,
                  retry: RetryPolicy | None = None,
                  failover: bool = True,
                  workers: int = 0,
                  ) -> DistributedRuntime:
    """Convenience constructor: one node per subject, tables at owners.

    ``authority_tables`` maps authority name → {relation name → table};
    ``rsa_keys`` (subject name → keypair) skips per-node key generation;
    ``latency_seconds`` — one float for every subject or a per-subject
    mapping — simulates provider round-trip delay per fragment.  A
    mapping naming a subject with no node here raises
    :class:`ValueError` before any node is built (a silently ignored
    name would make its latency vanish instead of failing loudly).
    ``clock``/``sleeper``/``health``/``fault_injector``/``retry``/
    ``failover``/``workers`` pass through to
    :class:`DistributedRuntime`.
    """
    if isinstance(latency_seconds, Mapping):
        known = {subject.name for subject in subjects}
        unknown = sorted(set(latency_seconds) - known)
        if unknown:
            raise ValueError(
                "latency_seconds names unknown subjects: "
                + ", ".join(repr(name) for name in unknown))
    nodes: dict[str, SubjectNode] = {}
    for subject in subjects:
        tables = authority_tables.get(subject.name, {})
        if isinstance(latency_seconds, Mapping):
            latency = latency_seconds.get(subject.name, 0.0)
        else:
            latency = latency_seconds
        nodes[subject.name] = SubjectNode.create(
            subject, tables=tables, udfs=udfs, rsa_bits=rsa_bits,
            rsa_keys=(rsa_keys or {}).get(subject.name),
            latency_seconds=latency,
        )
    return DistributedRuntime(
        policy, nodes, user, clock=clock, sleeper=sleeper, health=health,
        fault_injector=fault_injector, retry=retry, failover=failover,
        workers=workers,
    )
