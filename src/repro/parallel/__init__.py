"""Shared process-pool layer for the CPU-bound data plane.

The GIL caps threads at one core for CPU-bound work, so the hot
kernels — whole-column Paillier CRT decryption (~650 µs per
value, the dominant crypto cost) and columnar Encrypt/Decrypt — fan out
across *worker processes* instead.  This package owns the machinery;
the kernels themselves stay in the modules that define their sequential
paths.  Joins stay inline: a probe is cheaper than shipping its build
side to every chunk.

Contract
--------
* **Chunking.**  :meth:`WorkerPool.map_chunks` splits a column into
  contiguous chunks, submits ``task(payload, chunk)`` per chunk, and
  concatenates the per-chunk result lists.  ``payload`` is the
  chunk-invariant context (serialized key material) shipped with every
  chunk; workers memoize its deserialized form keyed by the payload
  bytes (:mod:`repro.parallel.kernels`), so repeated columns under the
  same key pay transport, not rehydration.
* **Ordering.**  Chunks are contiguous slices in input order and
  results are reassembled in submission order, so the concatenated
  output is element-for-element identical to the sequential kernel.
* **Fallback.**  With ``workers=0``, or when the input is smaller than
  :data:`~repro.parallel.pool.MIN_PARALLEL_ITEMS`, ``map_chunks`` runs
  the same task function inline in the calling process — no processes
  are spawned and the sequential behaviour is reproduced exactly.
  Callers may also pre-check :meth:`WorkerPool.should_parallelize` to
  skip building the payload at all.
* **Spawn safety.**  Workers start via the ``spawn`` context (no
  inherited fork state); everything they need arrives pickled.  The
  crypto objects define ``__getstate__`` hooks that drop per-process
  state (cipher memos, obfuscator pools, locks) and rebuild it lazily
  on the other side.
* **Errors.**  An exception raised inside a worker (a tampered token's
  :class:`~repro.exceptions.CryptoError`) propagates to the caller
  through the earliest failing chunk, exactly as the sequential loop
  raises it.
* **Sharing.**  :func:`shared_pool` hands out one bounded process pool
  per worker count, so the runtime's per-subject fragments and each
  fragment's intra-column chunks draw from the same worker budget
  instead of multiplying pools.

Known cost: each chunk re-ships its payload; the size threshold keeps
small inputs inline where that overhead would dominate.
"""

from repro.parallel.pool import WorkerPool, shared_pool

__all__ = ["WorkerPool", "shared_pool"]
