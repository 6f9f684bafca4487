"""Shared process-pool layer for the CPU-bound data plane.

The GIL caps threads at one core for CPU-bound work, so the hot
kernels — whole-column Paillier CRT decryption (~650 µs per
value, the dominant crypto cost), columnar Encrypt/Decrypt, and
hash-join probes — fan out across *worker processes* instead.  This
package owns the machinery; the kernels themselves stay in the modules
that define their sequential reference paths.

Contract
--------
* **Chunking.**  :meth:`WorkerPool.map_chunks` splits a column (or a
  probe side) into contiguous chunks, submits ``task(payload, chunk)``
  per chunk, and concatenates the per-chunk result lists.  ``payload``
  is the chunk-invariant context (serialized key material, a pickled
  join build side) shipped with every chunk; workers memoize its
  deserialized form keyed by the payload bytes
  (:mod:`repro.parallel.kernels`), so repeated columns under the same
  key pay transport, not rehydration.
* **Ordering.**  Chunks are contiguous slices in input order and
  results are reassembled in submission order, so the concatenated
  output is element-for-element identical to the sequential kernel —
  including output *row order* for the parallel hash-join probe.
* **Fallback.**  With ``workers=0``, or when the input is smaller than
  ``min_parallel_items``, ``map_chunks`` runs the same task function
  inline in the calling process — no processes are spawned and the
  sequential reference behaviour is reproduced exactly.  Callers may
  also pre-check :meth:`WorkerPool.should_parallelize` to skip building
  the payload at all.
* **Spawn safety.**  Workers start via the ``spawn`` context (no
  inherited fork state); everything they need arrives pickled.  The
  crypto objects define ``__getstate__`` hooks that drop per-process
  state (cipher memos, obfuscator pools, locks) and rebuild it lazily
  on the other side.
* **Errors.**  An exception raised inside a worker (a tampered token's
  :class:`~repro.exceptions.CryptoError`, an unhashable join key's
  :class:`~repro.exceptions.ExecutionError`) propagates to the caller
  through the earliest failing chunk, exactly as the sequential loop
  raises it.
* **Sharing.**  :meth:`ExecutionSettings.pool` hands out one bounded
  process pool per ``(workers, min_parallel_items)`` configuration, so
  the runtime's per-subject fragments and each fragment's intra-column
  chunks draw from the same worker budget instead of multiplying pools.

Known cost: each chunk re-ships its payload (for joins, the pickled
build side), so parallel probing pays build-side transport per chunk.
The ``min_parallel_items`` threshold keeps small inputs inline where
that overhead would dominate.
"""

from repro.parallel.pool import (
    JOIN_STRATEGIES,
    ExecutionSettings,
    WorkerPool,
    shared_pool,
)

__all__ = [
    "JOIN_STRATEGIES",
    "ExecutionSettings",
    "WorkerPool",
    "shared_pool",
]
