"""Sharded multi-core execution of the reproduction's batch workloads.

The paper's two headline experiment families are batches of thousands
of independent runs over one graph: all-pairs termination sweeps
(Hussak & Trehan 2019) and the initial-conditions census (the
"Terminating cases of flooding" follow-up).  Both read one frozen CSR
index and write independent results, which makes them embarrassingly
parallel -- this package is the worker-pool layer that puts them on
all cores:

* :func:`parallel_sweep` -- sharded drop-in for
  :func:`repro.fastpath.sweep`: partitions a batch of source sets
  across ``multiprocessing`` workers (the index is pickled once per
  worker, never per run), streams results back in deterministic input
  order, applies a chunk-size heuristic, and falls back to the serial
  loop for small batches or single-core machines.  Output is
  bit-identical to the serial sweep for every worker count and chunk
  size.
* :class:`SweepPool` -- the reusable serving shape: one pool of warm
  workers per graph, many batches through it.  Its async hooks
  (:meth:`~repro.parallel.pool.SweepPool.sweep_async` /
  :meth:`~repro.parallel.pool.SweepPool.submit_batch`) return
  :class:`concurrent.futures.Future` s, and ``submit_batch`` -- id
  lists under one :class:`~repro.api.spec.BatchKey` -- is what the
  query service (:mod:`repro.service`) drives; :func:`serial_batch_ids`
  is the same post-validation loop without processes (the service's
  1-core mode).
* :func:`repro.parallel.census.classify_masks` -- the same sharding
  for the configuration census's orbit detections; its sibling
  :func:`repro.parallel.census.receipt_counts` batches per-node
  receive-count censuses through the oracle backend (word-packed
  bitset sweep on large deterministic batches).

``repro.core`` routes :func:`~repro.core.multisource.all_pairs_termination`
and :func:`~repro.core.initial_conditions.classify_all_configurations`
through this package behind unchanged signatures, so existing callers
scale to the machine without code changes.  See
``docs/architecture.md`` for the dataflow.
"""

from repro.parallel.census import (
    MIN_PARALLEL_CENSUS,
    classify_masks,
    receipt_counts,
)
from repro.parallel.pool import (
    MAX_CHUNK,
    MIN_PARALLEL_BATCH,
    SweepPool,
    default_chunksize,
    parallel_sweep,
    serial_batch_ids,
    worker_count,
)

__all__ = [
    "MAX_CHUNK",
    "MIN_PARALLEL_BATCH",
    "MIN_PARALLEL_CENSUS",
    "SweepPool",
    "classify_masks",
    "default_chunksize",
    "parallel_sweep",
    "receipt_counts",
    "serial_batch_ids",
    "worker_count",
]
