"""The bounded process pool, sized by one number: the worker count.

See the package docstring (:mod:`repro.parallel`) for the
chunking/ordering/fallback contract.  This module deliberately imports
nothing from the crypto or engine layers, so every one of them can
depend on it without cycles.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Sequence

from repro.core.budget import active_token

#: Below this many items a column runs inline: process transport costs
#: more than it saves on small inputs (see the package docstring).
MIN_PARALLEL_ITEMS = 256

#: Contiguous chunks submitted per worker.  More than one evens out
#: skew between chunks (a worker that finishes early picks up another)
#: without shrinking chunks to where per-task overhead dominates.
_CHUNKS_PER_WORKER = 2


def _checked_workers(workers: int) -> int:
    if (not isinstance(workers, int) or isinstance(workers, bool)
            or workers < 0):
        raise ValueError(
            f"workers must be a non-negative integer, got {workers!r}")
    return workers


class WorkerPool:
    """A lazily started, spawn-context process pool with chunked map.

    Parameters
    ----------
    workers:
        Worker process count.  ``0`` disables the pool entirely:
        :meth:`map_chunks` always runs inline and no process is ever
        spawned — the single-core reference behaviour.  Inputs smaller
        than :data:`MIN_PARALLEL_ITEMS` run inline even with workers
        available.

    The underlying :class:`~concurrent.futures.ProcessPoolExecutor` is
    created on the first parallel submission (constructing a pool is
    free until it is actually needed) and is safe to share across
    threads — concurrent runs submit column chunks from their own
    threads into one pool.
    """

    def __init__(self, workers: int) -> None:
        self.workers = _checked_workers(workers)
        self._executor: ProcessPoolExecutor | None = None
        self._guard = threading.Lock()

    def should_parallelize(self, count: int) -> bool:
        """Whether an input of ``count`` items goes to the workers."""
        return self.workers > 0 and count >= MIN_PARALLEL_ITEMS

    def map_chunks(self, task: Callable[[object, list], list],
                   payload: object, items: Sequence) -> list:
        """Run ``task(payload, chunk)`` over contiguous chunks of ``items``.

        Results are concatenated in submission order, so the output is
        identical to ``task(payload, list(items))`` — which is exactly
        what runs (inline, in this process) when the pool is disabled or
        the input is below the size threshold.

        Cancellation: when the submitting thread carries a scoped
        :class:`~repro.core.budget.CancellationToken` (see
        ``token_scope``), it is checked before starting and between
        collecting each chunk's result.  A chunk already running in a
        worker completes (workers are oblivious to tokens — cooperative,
        never preemptive), but no further chunk is *awaited* after an
        abort: pending futures are cancelled and the abort unwinds
        within one chunk, leaving the pool reusable.

        A worker that dies (killed, out of memory) breaks its executor
        for good.  The map that meets it drops that executor, so the
        next parallel map spawns fresh workers, and runs inline instead:
        the tasks are pure, so the inline result is the same.
        """
        token = active_token()
        if token is not None:
            token.check("pool:map")
        items = items if isinstance(items, list) else list(items)
        if not self.should_parallelize(len(items)):
            return task(payload, items)
        chunk_count = min(self.workers * _CHUNKS_PER_WORKER, len(items))
        size = -(-len(items) // chunk_count)  # ceil division
        chunks = [items[i:i + size] for i in range(0, len(items), size)]
        if len(chunks) == 1:
            return task(payload, items)
        executor = self._ensure_executor()
        try:
            futures = [executor.submit(task, payload, chunk)
                       for chunk in chunks]
            out: list = []
            for index, future in enumerate(futures):
                if token is not None:
                    try:
                        token.check(f"pool:chunk {index}/{len(futures)}")
                    except Exception:
                        for pending in futures[index:]:
                            pending.cancel()
                        raise
                out.extend(future.result())
        except BrokenProcessPool:
            self._discard(executor)
            return task(payload, items)
        return out

    def _ensure_executor(self) -> ProcessPoolExecutor:
        executor = self._executor
        if executor is None:
            with self._guard:
                executor = self._executor
                if executor is None:
                    executor = ProcessPoolExecutor(
                        max_workers=self.workers,
                        mp_context=multiprocessing.get_context("spawn"),
                    )
                    self._executor = executor
        return executor

    def _discard(self, executor: ProcessPoolExecutor) -> None:
        """Forget a broken executor (unless another map already has)."""
        with self._guard:
            if self._executor is executor:
                self._executor = None
        executor.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the worker processes down (no-op if never started)."""
        with self._guard:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


#: One pool per worker count, shared by every runtime that names it —
#: fragments and intra-fragment chunks draw from the same bounded worker
#: budget.  Shared pools live for the process; nothing closes them
#: (worker processes idle between uses).
_SHARED_POOLS: dict[int, WorkerPool] = {}
_SHARED_GUARD = threading.Lock()


def shared_pool(workers: int) -> WorkerPool | None:
    """The process-wide :class:`WorkerPool` of ``workers`` processes.

    ``workers=0`` returns ``None`` — callers treat a missing pool as
    "run the sequential path", so zero workers keeps every kernel inline
    and single-core.  Anything but a non-negative integer raises
    :class:`ValueError`.
    """
    if _checked_workers(workers) == 0:
        return None
    with _SHARED_GUARD:
        pool = _SHARED_POOLS.get(workers)
        if pool is None:
            pool = _SHARED_POOLS[workers] = WorkerPool(workers)
        return pool
