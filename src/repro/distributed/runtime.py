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

This module is the recursion, the envelope I/O and the takeover.  Every
other decision is stated once, by the part that owns it: what a subject
may produce and receive in :mod:`repro.distributed.enforcement` (checked
on every run, at every node and every delivery), when a fragment result
is reused in :mod:`repro.distributed.fragcache`, which failures are
retried in :mod:`repro.distributed.retry`, and who the participants are
in :mod:`repro.distributed.nodes`.  Whatever seals, opens or verifies
stays here, as ``seal_envelope`` / ``open_envelope`` /
``verify_assignment`` resolved in this module's namespace and as the
methods ``_open_and_record``, ``_receive_input``, ``_evaluate_fragment``,
``_execute_with_retries`` and ``_evaluate``: the benchmark's tracer and
the tamper / spoof / drop / envelope-counting suites rebind exactly
those names, and they are the boundaries a span tree hangs on.

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

Failover contract
-----------------
A seedable :class:`~repro.distributed.faults.FaultInjector` can be wired
in to make chaos runs deterministic.  A fragment that loses its subject
(:class:`~repro.distributed.retry.FragmentFailed`: a dead provider, an
open breaker, an exhausted retry budget) escalates to **mid-query
failover**: only the failed fragment is re-dispatched; every upstream
fragment result already computed is kept and fed to the replacement.

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

Time is injectable (``clock``/``sleeper``): the latency a fault
injector adds, backoff sleeps, and breaker timeouts all go through the
two callables, so resilience tests run fast and deterministic.

Budgets and cancellation
------------------------
``run`` accepts a :class:`~repro.core.budget.CancellationToken` and
honors it cooperatively (the checkpoint contract lives in
:mod:`repro.core.budget`): the token is checked before envelopes are
sealed, at every fragment boundary, at every retry iteration, after each
injected-latency sleep, and at every failover candidate; it is
additionally scoped to the evaluating thread (``token_scope``) so
chunked parallel maps deep inside the executor observe it between
chunks.  Injected-latency and backoff sleeps are
clamped to the *remaining* query budget, so a sleep can never overshoot
it.  An abort unwinds as
:class:`~repro.exceptions.DeadlineExceededError` /
:class:`~repro.exceptions.QueryCancelledError` with the partial
:class:`ExecutionTrace` attached.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, fields, replace
from typing import Mapping

from repro.core.authorization import Policy, Subject, SubjectView
from repro.core.budget import CancellationToken, token_scope
from repro.core.dispatch import DispatchPlan, SubQuery
from repro.core.extension import ExtendedPlan
from repro.core.keys import KeyAssignment
from repro.core.lineage import Lineage, augment_view, derived_lineage
from repro.core.operators import BaseRelationNode, PlanNode
from repro.core.visibility import verify_assignment
from repro.crypto.keymanager import DistributedKeys, KeyStore
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.distributed.enforcement import check_profile, check_values
from repro.distributed.faults import FaultInjector
from repro.distributed.fragcache import FragmentCache, fragment_footprint
from repro.distributed.health import HealthRegistry
from repro.distributed.messages import (
    SubQueryPayload,
    open_envelope,
    seal_envelope,
)
from repro.distributed.nodes import (
    SubjectNode,
    build_nodes,
    generate_subject_keys,  # noqa: F401  (the benchmark imports it here)
)
from repro.distributed.retry import FragmentFailed, run_with_retries
from repro.engine.executor import Executor, UdfCallable, physical_step
from repro.engine.table import Table
from repro.parallel.pool import shared_pool
from repro.exceptions import (
    DispatchError,
    ProviderUnavailableError,
    QueryAbortedError,
    UnauthorizedError,
)


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


@dataclass
class ExecutionTrace:
    """What moved where during one run; folded with :meth:`absorb`, the
    one record of every run of a query, which every counter reads."""

    #: Sealed envelopes (one per subject, plus one per failover reseal)
    #: and inter-fragment table transfers.
    messages: int = 0
    #: Total size of those envelopes.
    envelope_bytes: int = 0
    rows_transferred: int = 0
    #: Every (fragment id, subject) requested, in call order, cache hits
    #: and failover takeovers included.
    fragments_run: list[tuple[str, str]] = field(default_factory=list)
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
    #: (subject, seconds) per successful fragment execution, the wall
    #: time the health registry's latency EWMA is fed.
    executions: list[tuple[str, float]] = field(default_factory=list)

    def absorb(self, later: "ExecutionTrace") -> None:
        """Append a later run of the same query: counts add, lists join."""
        for name in (f.name for f in fields(self)):
            setattr(self, name, getattr(self, name) + getattr(later, name))


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
    user_node: SubjectNode
    #: The extended plan under execution; failover repairs (and
    #: re-verifies) its assignment when a fragment loses its provider.
    extended: ExtendedPlan
    #: The query's cancellation token (None = unbudgeted, no checks).
    token: CancellationToken | None = None
    #: Subject → its policy view augmented with the plan's lineage, read
    #: once per subject: a run is exactly one read of the policy.
    views: dict[str, SubjectView] = field(default_factory=dict)
    #: Subject → the payload it opened and verified from its envelope,
    #: written under the subject's lock.  Per run by design: a repeated
    #: query is delivered, opened and verified again.
    opened: dict[str, SubQueryPayload] = field(default_factory=dict)


class DistributedRuntime:
    """Executes dispatch plans across simulated subjects.

    Parameters
    ----------
    clock / sleeper:
        Injectable time sources (defaults: :func:`time.monotonic` and
        :func:`time.sleep`).  Injected provider latency, retry backoff
        and the breaker timeouts of the runtime's own
        :class:`~repro.distributed.health.HealthRegistry` (``health``)
        all go through these, so tests can drive them with a fake clock
        instead of sleeping.
    fault_injector:
        Optional :class:`~repro.distributed.faults.FaultInjector`
        consulted before every fragment execution: the only source of
        simulated provider latency and faults.
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
                 fault_injector: FaultInjector | None = None,
                 workers: int = 0) -> None:
        self.policy = policy
        self.pool = shared_pool(workers)
        self.nodes = dict(nodes)
        self.user = user
        self._clock = clock or time.monotonic
        self._sleep = sleeper or time.sleep
        self.health = HealthRegistry(clock=self._clock)
        self.fault_injector = fault_injector
        if user not in self.nodes:
            raise DispatchError(f"no runtime node for user {user!r}")
        self._subject_locks: dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        #: Whole-fragment results kept across runs, and their counters.
        self.fragments = FragmentCache(policy)

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
        root_view = self._view_for(context, user)
        check_profile(
            root_view, context.profiles[extended.plan.root], "query result")
        check_values(root_view, result)
        trace.rows_transferred += len(result)
        # The result may live in (and be served again from) the fragment
        # cache; Table.rows is a public mutable list, so hand the caller
        # a private copy rather than the cached object itself.
        return result.copy(), trace

    def invalidate_caches(self) -> None:
        """Call after changing a node's ``tables`` or ``udfs`` in place
        (:meth:`~repro.distributed.fragcache.FragmentCache.clear`)."""
        self.fragments.clear()

    def cache_info(self) -> dict[str, int]:
        """Fragment-cache size, traffic and policy-reconcile counters."""
        return self.fragments.info()

    def health_info(self) -> dict[str, dict[str, object]]:
        """Per-subject health snapshot (breaker state, EWMA, counters)."""
        return self.health.snapshot()

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
        view = self._view_for(context, fragment.subject)
        inputs: dict[int, Table] = {}
        for boundary_id, child_fragment_id in fragment.requests.items():
            table = self._run_fragment(context, child_fragment_id)
            self._receive_input(context, view, table)
            inputs[boundary_id] = table
        # The subject lock serializes this subject's fragments across
        # concurrent runs; it is taken around the open and the evaluation
        # only (never while recursing into children) so same-subject
        # nesting cannot deadlock.
        try:
            with lock:
                return self._evaluate_fragment(context, fragment, node,
                                               payload, view, inputs)
        except FragmentFailed as failure:
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

    def _receive_input(self, context: _RunContext, view: SubjectView,
                       table: Table) -> None:
        context.trace.messages += 1
        context.trace.rows_transferred += len(table)
        check_values(view, table)

    def _evaluate_fragment(self, context: _RunContext, fragment: SubQuery,
                           node: SubjectNode, payload: SubQueryPayload,
                           view: SubjectView,
                           inputs: dict[int, Table]) -> Table:
        """Ask the cache; on a miss run the fragment and store the result
        (hit rule and fences: :mod:`repro.distributed.fragcache`)."""
        tables = tuple(inputs.values())
        plan = context.dispatch_plan
        result, ticket = self.fragments.lookup(
            plan, fragment, payload.keys_signature, tables)
        if result is not None:
            context.trace.fragment_cache_hits += 1
            return result
        result = self._execute_with_retries(context, fragment, node,
                                            payload, view, inputs)
        self.fragments.store(
            plan, fragment, payload.keys_signature, tables, result,
            fragment_footprint(fragment.root, context.profiles,
                               context.lineage),
            ticket)
        return result

    def _execute_with_retries(self, context: _RunContext,
                              fragment: SubQuery, node: SubjectNode,
                              payload: SubQueryPayload, view: SubjectView,
                              inputs: dict[int, Table]) -> Table:
        """One attempt = injected latency, a fresh executor, the
        evaluation (what is retried: :mod:`repro.distributed.retry`)."""
        subject = fragment.subject
        token = context.token

        def attempt() -> Table:
            delay = 0.0
            if self.fault_injector is not None:
                delay = self.fault_injector.on_execute(subject)
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
                    f"runtime:fragment {fragment.fragment_id} response")
            executor = Executor(
                node.tables, keystore=payload.keystore, udfs=node.udfs,
                constant_keystore=context.constant_store,
                pool=self.pool,
            )
            with token_scope(token):
                return self._evaluate(context, fragment.root, executor,
                                      inputs, view)

        return run_with_retries(
            subject, fragment.fragment_id, attempt,
            health=self.health,
            clock=self._clock, sleep=self._sleep, token=token,
            trace=context.trace)

    # ------------------------------------------------------------------
    # Mid-query failover
    # ------------------------------------------------------------------
    def _failover_fragment(self, context: _RunContext, fragment: SubQuery,
                           inputs: dict[int, Table],
                           failure: FragmentFailed) -> Table:
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
            view = self._view_for(context, candidate)
            try:
                with self._lock_for(candidate):
                    opened = self._open_and_record(context, takeover,
                                                   candidate_node, blob)
                    for table in inputs.values():
                        self._receive_input(context, view, table)
                    result = self._evaluate_fragment(
                        context, takeover, candidate_node, opened, view,
                        inputs)
            except FragmentFailed as next_failure:
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

        Candidates are runtime subjects that are not excluded, currently
        available per the health registry, and hold every base relation
        the fragment reads locally (a fragment embedding stored data can
        only move to a subject that stores the same relations).  Ordered
        by latency EWMA then name, so failover prefers the fastest healthy
        provider deterministically; the querying user is kept as the last
        resort — pulling computation back to the client defeats the
        outsourcing the assignment paid for.
        """
        candidates = []
        for name, node in self.nodes.items():
            if name in excluded:
                continue
            if not self.health.available(name):
                continue
            if any(b.relation.name not in node.tables
                   for b in base_relations):
                continue
            candidates.append(name)
        if not candidates:
            return None
        candidates.sort(key=lambda n: (n == context.user_node.name,
                                       self.health.latency_hint(n), n))
        return candidates[0]

    def _unavailable(self, context: _RunContext, fragment: SubQuery,
                     failure: FragmentFailed,
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

    def _evaluate(self, context: _RunContext, node: PlanNode,
                  executor: Executor, inputs: dict[int, Table],
                  view: SubjectView) -> Table:
        if id(node) in inputs:
            return inputs[id(node)]
        # One node, or (own Encrypt, σ) — the engine may run that σ first.
        step = physical_step(node, inputs)
        result = executor.execute_step(step, [
            self._evaluate(context, child, executor, inputs, view)
            for child in step[0].children])
        for checked in step:
            if not isinstance(checked, BaseRelationNode):
                check_profile(view, context.profiles[checked],
                              f"relation at {checked.label()}")
        return result

    # ------------------------------------------------------------------
    # Per-subject state
    # ------------------------------------------------------------------
    def _node_for(self, subject: str) -> SubjectNode:
        if subject not in self.nodes:
            raise DispatchError(f"no runtime node for subject {subject!r}")
        return self.nodes[subject]

    def _view_for(self, context: _RunContext, subject: str) -> SubjectView:
        view = context.views.get(subject)
        if view is None:
            view = context.views[subject] = augment_view(
                self.policy.view(subject), context.lineage)
        return view

    def _lock_for(self, subject: str) -> threading.Lock:
        with self._locks_guard:
            lock = self._subject_locks.get(subject)
            if lock is None:
                lock = threading.Lock()
                self._subject_locks[subject] = lock
            return lock


def build_runtime(policy: Policy, subjects: list[Subject],
                  authority_tables: Mapping[str, Mapping[str, Table]],
                  user: str,
                  udfs: Mapping[str, UdfCallable] | None = None,
                  rsa_keys: Mapping[
                      str, tuple[RsaPublicKey, RsaPrivateKey]] | None = None,
                  clock=None, sleeper=None,
                  fault_injector: FaultInjector | None = None,
                  workers: int = 0,
                  ) -> DistributedRuntime:
    """Convenience constructor: :func:`~repro.distributed.nodes.build_nodes`
    (``subjects`` … ``rsa_keys``), everything else passed through to
    :class:`DistributedRuntime`."""
    nodes = build_nodes(subjects, authority_tables, udfs=udfs,
                        rsa_keys=rsa_keys)
    return DistributedRuntime(
        policy, nodes, user, clock=clock, sleeper=sleeper,
        fault_injector=fault_injector, workers=workers,
    )
