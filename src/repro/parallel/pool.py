"""The sharded sweep pool: one graph, many floods, all cores.

A sweep (:func:`repro.fastpath.sweep`) is embarrassingly parallel
across source sets: every run reads the same frozen CSR index and
writes an independent result.  This module shards a batch across
``multiprocessing`` workers with exactly one expensive transfer:

* the parent pickles the :class:`~repro.fastpath.indexed.IndexedGraph`
  **once** into a bytes payload (the index's pickle support drops its
  process-local memo caches), and every worker unpickles it **once** in
  its pool initializer -- never per run, never per chunk;
* tasks are ``([source-id lists], BatchKey, [stream keys])`` chunks
  -- a few dozen bytes each, carrying the *same*
  :class:`~repro.api.spec.BatchKey` the batch was resolved to (the
  execution projection of the requests' :class:`~repro.api.spec.FloodSpec`)
  -- and results stream back as raw statistic tuples
  (:data:`~repro.fastpath.pure_backend.RawRun`), which the parent wraps
  into :class:`~repro.fastpath.engine.IndexedRun` against its own copy
  of the index;
* ordered ``map_async`` delivers results in deterministic input
  order regardless of which worker finishes first, so parallel output
  is **bit-identical** to the serial sweep -- same dataclasses, same
  field values, same ordering (the determinism tests assert this across
  worker counts and chunk sizes, budget cut-offs included).

Entry points
------------

:func:`parallel_sweep`
    One-shot drop-in for :func:`repro.fastpath.sweep`.  Auto-sizes the
    pool to the usable cores, falls back to the serial loop for batches
    that cost fewer than :data:`MIN_PARALLEL_BATCH` engine passes or on
    single-core machines (identical results either way), and accepts
    the same ``backend=`` names, including ``"oracle"``.

:class:`SweepPool`
    The reusable form for serving workloads: keep one pool of warm
    workers per graph and push many batches through it, paying worker
    start-up and index transfer once per pool instead of once per call.
    :meth:`SweepPool.sweep_specs` is the spec-native batch form the
    :class:`~repro.api.session.FloodSession` facade drives.

Usage::

    from repro.graphs import erdos_renyi
    from repro.parallel import SweepPool, parallel_sweep

    graph = erdos_renyi(10_000, 8 / 10_000, seed=1, connected=True)
    sets = [[v] for v in graph.nodes()[:512]]

    runs = parallel_sweep(graph, sets)            # auto workers/chunks
    runs = parallel_sweep(graph, sets, workers=4) # pin the pool size

    specs = [FloodSpec(graph, sources) for sources in sets]
    with SweepPool(graph, workers=4) as pool:     # serving shape
        first = pool.sweep_specs(specs)
        again = pool.sweep_specs(
            [spec.replace(backend="oracle") for spec in specs]
        )
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys
from concurrent.futures import Future
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.api.spec import BatchKey, FloodSpec
from repro.errors import ConfigurationError
from repro.fastpath.engine import (
    IndexedRun,
    batch_passes,
    batch_specs,
    dispatch_batch,
    resolve_batch,
    wrap_raw_run,
)
from repro.fastpath.indexed import IndexedGraph
from repro.fastpath.pure_backend import RawRun
from repro.fastpath.variants import VariantSpec
from repro.graphs.graph import Graph, Node

MIN_PARALLEL_BATCH = 32
"""Below this many engine passes, a one-shot auto-mode sweep stays serial.

The unit is :func:`~repro.fastpath.engine.batch_passes`: a word-packed
batch (plain numpy, or an oracle batch on the bitset lane) floods 64
runs per pass and costs ``ceil(runs / 64)`` passes; pure, per-source
oracle and variant batches cost one pass per run.  A fresh pool pays
fork, one index transfer per worker and the reap before it saves
anything, and counting runs would charge a word-packed batch 64 times
its work.  ``bench_parallel.py::test_ext_par_one_shot_mode`` times
three shapes either side of the floor (2-core VM, best of 3 in each of
eight runs): ER-2000 x 512 numpy pairs (8 passes) took 40-60 ms
through a fresh pool against 11-21 ms serially; ER-10k x 2048 numpy
(32 passes) 255-387 ms against 321-486 ms; C4095 x 64 pure 228-297 ms
against 247-449 ms.  An explicit
``workers=`` request overrides the floor (the caller asked for a pool,
they get one).  Warm pools pay no start-up, so
:meth:`~repro.api.session.FloodSession._pooled` keeps counting runs.
"""

MAX_CHUNK = 64
"""Upper bound on the chunk heuristic, to keep results streaming.

64 runs is one word: a full chunk of a numpy batch fills one ``uint64``
arc pass of :func:`~repro.fastpath.numpy_backend.run_batch`, and a full
oracle chunk one bitset cover word."""

_Task = Tuple[List[List[int]], BatchKey, Optional[List[int]]]

# Per-worker state, populated exactly once by _init_worker.  Plain
# module globals: each worker process gets its own copy, and the pool
# initializer runs before any task, so tasks never race on it.
_WORKER_INDEX: Optional[IndexedGraph] = None


def worker_count(workers: Optional[int] = None) -> int:
    """Resolve a worker count: explicit, else the usable cores.

    ``None`` means "what this machine can actually run in parallel":
    the scheduling affinity when the platform exposes it (containers
    often restrict it below ``cpu_count``), else ``os.cpu_count()``.
    """
    if workers is not None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        return workers
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def default_chunksize(batch_size: int, workers: int) -> int:
    """The chunk heuristic: ~4 chunks per worker, capped at ``MAX_CHUNK``.

    Large enough that per-chunk dispatch overhead (one pickle of a few
    id lists, one queue round trip) is amortised over many runs; small
    enough that every worker gets several chunks (tail latency -- one
    slow chunk cannot serialise the whole batch) and results stream
    back early.
    """
    if batch_size <= 0:
        return 1
    target = -(-batch_size // (workers * 4))  # ceil division
    return max(1, min(MAX_CHUNK, target))


def _init_worker(payload: bytes) -> None:
    """Pool initializer: unpickle the shared CSR index, once per worker."""
    global _WORKER_INDEX
    _WORKER_INDEX = pickle.loads(payload)


def _run_chunk(task: _Task) -> List[RawRun]:
    """Worker body: run one chunk of source-id lists on the local index.

    The chunk carries the batch's :class:`BatchKey` verbatim -- the
    worker executes exactly the object the parent batched on, through
    the same :func:`~repro.fastpath.engine.dispatch_batch` funnel the
    serial path uses (so a numpy chunk floods word-packed, and eligible
    oracle chunks take the bitset sweep, inside the worker too;
    ``MAX_CHUNK`` = 64 keeps those chunks word-aligned).
    """
    id_lists, key, run_keys = task
    return dispatch_batch(_WORKER_INDEX, id_lists, key, run_keys)


def _wrap_runs(
    index: IndexedGraph,
    id_lists: Sequence[List[int]],
    raw_runs: Iterable[RawRun],
    key: BatchKey,
) -> List[IndexedRun]:
    """Rehydrate raw statistic tuples into IndexedRuns on the parent index.

    Delegates to the engine's shared wrapper so sharded results are
    constructed by exactly the same code as serial ones.
    """
    return [
        wrap_raw_run(index, ids, key.backend, raw, key.variant)
        for ids, raw in zip(id_lists, raw_runs)
    ]


def _check_run_keys(
    id_lists: Sequence[List[int]],
    key: BatchKey,
    run_keys: Optional[Sequence[int]],
) -> None:
    """Variant work carries one RNG stream key per id list, aligned.

    The keys come from each request's own spec
    (:meth:`~repro.api.spec.FloodSpec.run_key`, gathered by
    :func:`~repro.fastpath.engine.resolve_batch` or per request by the
    service), so chunking and worker scheduling cannot move a run onto
    a different stream.  A variant batch without keys is refused rather
    than run with a second, position-based rule.
    """
    if run_keys is None:
        if key.variant is not None:
            raise ConfigurationError(
                "variant batches need run_keys: one stream key per id list"
            )
    elif len(run_keys) != len(id_lists):
        raise ConfigurationError(
            "run_keys must align one-to-one with id_lists"
        )


class SweepPool:
    """A persistent pool of workers warmed with one graph's CSR index.

    The serving-scale shape: build once per graph, push many batches
    through :meth:`sweep_specs` (or :meth:`submit_batch`).
    Construction forks (on Linux; the platform default start method
    elsewhere) ``workers`` processes and ships each the pickled index
    exactly once; after that, every batch costs only its per-chunk
    dispatch.

    Use as a context manager (or call :meth:`close`) to reap the
    workers deterministically.
    """

    def __init__(self, graph: Graph, workers: Optional[int] = None) -> None:
        self.graph = graph
        self.index = IndexedGraph.of(graph)
        self.workers = worker_count(workers)
        # fork is the cheapest way to stand workers up, but it is only
        # reliably safe on Linux (macOS frameworks and helper threads do
        # not survive fork; spawn is that platform's default for a
        # reason) -- everywhere else, keep the platform default.
        context = multiprocessing.get_context(
            "fork" if sys.platform == "linux" else None
        )
        payload = pickle.dumps(self.index, protocol=pickle.HIGHEST_PROTOCOL)
        self._pool = context.Pool(
            processes=self.workers,
            initializer=_init_worker,
            initargs=(payload,),
        )

    # ------------------------------------------------------------------

    def sweep_specs(
        self,
        specs: Sequence[FloodSpec],
        chunksize: Optional[int] = None,
    ) -> List[IndexedRun]:
        """Run one homogeneous spec batch across the pool, in input order.

        The pool twin of :func:`repro.fastpath.engine.sweep_specs`: the
        specs must agree on graph, budget, backend, variant and
        collection flags (they may differ in sources and RNG
        ``stream``), resolve through the same
        :func:`~repro.fastpath.engine.resolve_batch` on the pool's
        index, and every run carries its own spec's stream key into
        whatever chunk it lands on -- bit-identical to the serial spec
        sweep for every worker count and chunk size.
        """
        specs = list(specs)
        if not specs:
            return []
        if specs[0].graph != self.graph:
            raise ConfigurationError(
                "sweep_specs: the specs' graph is not this pool's graph"
            )
        key, id_lists, run_keys = resolve_batch(specs, self.index)
        return self.submit_batch(id_lists, key, chunksize, run_keys).result()

    def submit_batch(
        self,
        id_lists: Sequence[List[int]],
        key: BatchKey,
        chunksize: Optional[int] = None,
        run_keys: Optional[Sequence[int]] = None,
    ) -> "Future[List[IndexedRun]]":
        """Submit already-resolved id lists under one :class:`BatchKey`.

        The pool's one dispatch path: the blocking forms
        (:meth:`sweep_specs`, :func:`parallel_sweep`) wait on its
        future, and the service layer awaits it -- the service resolves
        and validates sources itself so it can batch requests in id
        space, and its micro-batch buckets are keyed by exactly the
        ``key`` object submitted here.  For variant work the caller
        supplies one RNG stream key per id list (the service derives
        them per *request*, so coalescing cannot move a query onto a
        different stream).  The returned future resolves to the
        ordered, parent-index-wrapped runs; a worker failure resolves
        it exceptionally instead.  Sharding and validation
        (``chunksize``, ``run_keys``) errors raise synchronously,
        before anything is enqueued.
        """
        future: "Future[List[IndexedRun]]" = Future()
        future.set_running_or_notify_cancel()
        if not id_lists:
            future.set_result([])
            return future
        tasks = self._make_tasks(id_lists, key, chunksize, run_keys)

        def on_done(ordered: List[List[RawRun]]) -> None:
            # map_async delivers every chunk in task order, so flattening
            # recovers input order without a sort.
            try:
                raw_runs = [raw for chunk in ordered for raw in chunk]
                future.set_result(
                    _wrap_runs(self.index, id_lists, raw_runs, key)
                )
            except BaseException as exc:  # pragma: no cover - defensive
                future.set_exception(exc)

        self._pool.map_async(
            _run_chunk, tasks, chunksize=1,
            callback=on_done, error_callback=future.set_exception,
        )
        return future

    def _make_tasks(
        self,
        id_lists: Sequence[List[int]],
        key: BatchKey,
        chunksize: Optional[int],
        run_keys: Optional[Sequence[int]] = None,
    ) -> List[_Task]:
        """Shard id lists into chunk tasks, in input order.

        ``run_keys`` is sliced with the same offsets as ``id_lists``: a
        run carries its stream key with it into whichever chunk and
        worker it lands on.  Variant work must supply them
        (:func:`_check_run_keys`).
        """
        if chunksize is None:
            chunksize = default_chunksize(len(id_lists), self.workers)
        elif chunksize < 1:
            raise ConfigurationError("chunksize must be >= 1")
        _check_run_keys(id_lists, key, run_keys)
        return [
            (
                list(id_lists[start : start + chunksize]),
                key,
                (
                    list(run_keys[start : start + chunksize])
                    if run_keys is not None
                    else None
                ),
            )
            for start in range(0, len(id_lists), chunksize)
        ]

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the workers down and wait for them to exit."""
        self._pool.close()
        self._pool.join()

    def terminate(self) -> None:
        """Kill the workers without draining queued work."""
        self._pool.terminate()
        self._pool.join()

    def __enter__(self) -> "SweepPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.terminate()

    def __repr__(self) -> str:
        return f"SweepPool(workers={self.workers}, index={self.index!r})"


def serial_batch_ids(
    index: IndexedGraph,
    id_lists: Sequence[List[int]],
    key: BatchKey,
    run_keys: Optional[Sequence[int]] = None,
) -> List[IndexedRun]:
    """The in-process fallback: same loop the pool runs, no processes.

    Public because the service layer's serial mode (``workers=0`` on a
    single-core box) executes batches through exactly this function --
    one code path, one determinism contract, pool or no pool, and one
    :class:`BatchKey` object from admission to execution.  Variant work
    must supply one stream key per id list, exactly as the pool does.
    """
    _check_run_keys(id_lists, key, run_keys)
    raw_runs = dispatch_batch(index, id_lists, key, run_keys)
    return _wrap_runs(index, id_lists, raw_runs, key)


def parallel_sweep(
    graph: Graph,
    source_sets: Iterable[Iterable[Node]],
    max_rounds: Optional[int] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    collect_senders: bool = False,
    collect_receives: bool = False,
    variant: Optional[VariantSpec] = None,
) -> List[IndexedRun]:
    """Sharded drop-in for :func:`repro.fastpath.sweep`.

    Partitions ``source_sets`` into chunks, runs them across a worker
    pool, and returns :class:`IndexedRun` results in input order,
    bit-identical to the serial sweep.

    Parameters beyond the serial signature:

    workers:
        ``None`` (default) auto-sizes to the usable cores and *also*
        enables the serial fallback: batches that cost fewer than
        :data:`MIN_PARALLEL_BATCH` engine passes
        (:func:`~repro.fastpath.engine.batch_passes`: 64 runs per pass
        on the word-packed lanes, one per run elsewhere), and machines
        with one usable core, run in-process, because a fresh pool
        cannot pay for itself there.  An explicit count -- including
        ``workers=1`` -- always builds a real pool of exactly that size
        for a non-empty batch; the determinism tests rely on this to
        exercise actual cross-process runs (pickling included) on small
        batches.
    chunksize:
        Source sets per task; ``None`` applies
        :func:`default_chunksize`.  Only affects scheduling, never
        results.

    The batch becomes :func:`~repro.fastpath.engine.batch_specs`, the
    same specs :func:`repro.fastpath.sweep` builds, and is resolved
    once (:func:`~repro.fastpath.engine.resolve_batch`); the resolved
    id lists run through :func:`serial_batch_ids` or
    :meth:`SweepPool.submit_batch`.

    >>> from repro.graphs import cycle_graph
    >>> runs = parallel_sweep(cycle_graph(9), [[0], [3], [0, 4]])
    >>> [run.termination_round for run in runs]
    [9, 9, 7]
    """
    specs = batch_specs(
        graph,
        source_sets,
        max_rounds,
        backend,
        collect_senders,
        collect_receives,
        variant,
    )
    if chunksize is not None and chunksize < 1:
        raise ConfigurationError("chunksize must be >= 1")
    resolved_workers = worker_count(workers)
    if not specs:
        return []
    index = IndexedGraph.of(graph)
    key, id_lists, run_keys = resolve_batch(specs, index)
    serial = workers is None and (
        resolved_workers <= 1
        or batch_passes(key, len(id_lists)) < MIN_PARALLEL_BATCH
    )
    if serial:
        return serial_batch_ids(index, id_lists, key, run_keys)
    with SweepPool(graph, workers=resolved_workers) as pool:
        return pool.submit_batch(id_lists, key, chunksize, run_keys).result()
