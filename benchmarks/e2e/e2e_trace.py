"""Per-layer spans recorded from outside the program.

Nothing under ``src/`` knows about tracing yet (ROADMAP item 2).  Until
it does, the benchmark rebinds each layer's public entry point where its
caller looks it up — the idiom ``tests/properties`` uses to observe
``runtime.seal_envelope`` — with a wrapper that records a
:class:`~e2e_stats.Span`, and puts the original back afterwards.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager

import repro.distributed.runtime as runtime_module
import repro.engine.executor as executor_module
import repro.service.workload as service_module
import repro.tpch.queries as tpch_queries_module
from repro.crypto.keymanager import DistributedKeys
from repro.distributed.runtime import DistributedRuntime
from repro.engine.executor import Executor
from repro.gateway import Gateway
from repro.parallel import WorkerPool
from repro.service import QueryService

import e2e_workloads as workloads_module
from e2e_stats import Span

#: (owner, attribute, span name).  Owners are the namespaces the callers
#: resolve the name in, so one function may be listed once per caller.
PATCH_POINTS = (
    (service_module, "plan_query", "sql.plan_query"),
    (tpch_queries_module, "plan_query", "sql.plan_query"),
    (service_module, "assign", "core.assign"),
    (service_module, "verify_assignment", "core.verify_assignment"),
    (runtime_module, "verify_assignment", "core.verify_assignment"),
    (service_module, "dispatch", "core.dispatch"),
    # plan_sweep calls the planner from the benchmark's own namespace.
    (workloads_module, "assign", "core.assign"),
    (workloads_module, "dispatch", "core.dispatch"),
    (DistributedKeys, "from_assignment", "crypto.query_keygen"),
    (DistributedRuntime, "run", "distributed.run"),
    (runtime_module, "seal_envelope", "crypto.seal_envelope"),
    (runtime_module, "open_envelope", "crypto.open_envelope"),
    (Executor, "execute", "engine.execute"),
    (Executor, "execute_node", "engine.execute"),
    (executor_module, "encrypt_column", "crypto.encrypt_column"),
    (executor_module, "decrypt_column", "crypto.decrypt_column"),
    (WorkerPool, "map_chunks", "parallel.map_chunks"),
    (QueryService, "execute", "service.execute"),
    (Gateway, "execute", "gateway.execute"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in PATCH_POINTS))

#: Spans whose work continues on other threads (gateway workers, the
#: runtime's fragment pool).  A span opened on a thread with no open
#: span of its own is parented to the most recently opened of these —
#: unambiguous with one client.
ADOPTERS = frozenset({"gateway.execute", "distributed.run"})


class Recorder:
    """Collects spans in memory; ``query`` tags whatever runs next."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.query = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopters: list[int] = []
        self._lock = threading.Lock()

    def wrap(self, name: str, function):
        """``function`` with a span recorded around every call."""
        adopts = name in ADOPTERS

        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            with self._lock:
                parent = stack[-1] if stack else (
                    self._adopters[-1] if self._adopters else None)
                if adopts:
                    self._adopters.append(span_id)
            query = self.query
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if adopts:
                    with self._lock:
                        self._adopters.remove(span_id)
                self.spans.append(
                    Span(span_id, name, start, end, parent, query))

        return traced


@contextmanager
def tracing(recorder: Recorder):
    """Rebind every patch point for the duration of the block."""
    saved = []
    try:
        for owner, attribute, name in PATCH_POINTS:
            raw = vars(owner)[attribute]
            saved.append((owner, attribute, raw))
            if isinstance(raw, classmethod):
                # Wrap the bound method so ``cls`` stays the owner.
                wrapper = staticmethod(
                    recorder.wrap(name, getattr(owner, attribute)))
            else:
                wrapper = recorder.wrap(name, raw)
            setattr(owner, attribute, wrapper)
        yield recorder
    finally:
        for owner, attribute, raw in reversed(saved):
            setattr(owner, attribute, raw)
