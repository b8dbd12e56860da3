"""Sharded censuses: orbit detection and receipt counting across cores.

The configuration census of
:func:`repro.core.initial_conditions.classify_all_configurations`
evolves every non-empty set of in-transit messages of a small graph to
a termination verdict -- ``2^(2m) - 1`` independent orbit detections,
the second embarrassingly parallel batch workload of the reproduction
(the paper's follow-up, "Terminating cases of flooding", is exactly
this census at scale).

The sharding reuses the sweep pool's worker plumbing: workers hold the
CSR index (pickled to them once at pool start-up), tasks are chunks of
arc-bitmask integers, and each worker runs exact orbit detection
(:func:`repro.fastpath.evolve_arc_mask`) over its chunk.  Verdicts
reduce to three order-insensitive aggregates -- total count,
terminating count, and the *earliest* non-terminating witnesses -- so
the merge tags every witness with its enumeration position and keeps
the globally smallest ones, making the parallel census's output
identical to the serial loop's for any worker count or chunk size.

:func:`receipt_counts` is the second census lane: per-node receive
counts for many source sets at once, one ``backend=None`` batch on the
auto-selected frontier engine inside whichever tier (serial or pool
chunks) executes it.
:func:`repro.core.multisource.receipt_census` classifies its output
into the once/twice/never partition.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.fastpath.engine import evolve_arc_mask
from repro.graphs.graph import Graph
from repro.parallel.pool import (
    SweepPool,
    default_chunksize,
    worker_count,
)
from repro.parallel import pool as _pool_module

MIN_PARALLEL_CENSUS = 2048
"""Below this many masks, auto mode keeps the census serial.

A single orbit detection on a census-sized graph costs microseconds --
three orders of magnitude less than a sweep flood -- so the batch has
to be correspondingly larger before pool start-up amortises.
"""

_CensusTask = Tuple[int, List[int], int]
_CensusResult = Tuple[int, int, List[Tuple[int, int]]]


def _census_chunk(task: _CensusTask) -> _CensusResult:
    """Worker body: evolve one chunk of arc masks on the local index.

    Returns ``(position, terminating_count, witnesses)`` where
    witnesses are ``(enumeration_position, mask)`` pairs for the first
    ``witness_cap`` non-terminating masks of the chunk.
    """
    position, masks, witness_cap = task
    index = _pool_module._WORKER_INDEX
    terminating = 0
    witnesses: List[Tuple[int, int]] = []
    for offset, mask in enumerate(masks):
        if evolve_arc_mask(index, mask)[0]:
            terminating += 1
        elif len(witnesses) < witness_cap:
            witnesses.append((position + offset, mask))
    return position, terminating, witnesses


def classify_masks(
    graph: Graph,
    masks: Sequence[int],
    witness_cap: int = 5,
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
) -> Tuple[int, List[int]]:
    """Classify arc-bitmask configurations, sharded across workers.

    Returns ``(terminating_count, witness_masks)`` with
    ``witness_masks`` the first ``witness_cap`` non-terminating masks
    in enumeration order -- byte-identical to running
    :func:`~repro.fastpath.evolve_arc_mask` over ``masks`` serially.

    ``workers=None`` auto-sizes and falls back to the serial loop when
    the batch is below :data:`MIN_PARALLEL_CENSUS` or only one core is
    usable -- same contract as :func:`repro.parallel.parallel_sweep`,
    with a higher floor because orbit detections are far cheaper per
    item than sweep floods.
    """
    resolved_workers = worker_count(workers)
    serial = workers is None and (
        resolved_workers <= 1 or len(masks) < MIN_PARALLEL_CENSUS
    )
    if serial:
        return _classify_serial(graph, masks, witness_cap)

    if chunksize is None:
        chunksize = default_chunksize(len(masks), resolved_workers)
    tasks: List[_CensusTask] = [
        (start, list(masks[start : start + chunksize]), witness_cap)
        for start in range(0, len(masks), chunksize)
    ]
    terminating = 0
    tagged_witnesses: List[Tuple[int, int]] = []
    with SweepPool(graph, workers=resolved_workers) as pool:
        for _, chunk_terminating, chunk_witnesses in pool._pool.imap(
            _census_chunk, tasks
        ):
            terminating += chunk_terminating
            tagged_witnesses.extend(chunk_witnesses)
    # imap keeps chunks ordered, so tags arrive ascending already; the
    # sort documents (and enforces) the order-insensitive merge.
    tagged_witnesses.sort()
    return terminating, [mask for _, mask in tagged_witnesses[:witness_cap]]


def receipt_counts(
    graph: Graph,
    source_sets: Sequence[Iterable[object]],
    max_rounds: Optional[int] = None,
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
) -> List[Tuple[int, ...]]:
    """Per-node receive counts for many source sets.

    Row ``i`` is a tuple over ``graph.nodes()`` order: how many times
    each node receives the message when flooding starts from
    ``source_sets[i]`` (0, 1 or 2 -- never more, by the double-cover
    correspondence).  The batch runs as one
    :func:`~repro.parallel.parallel_sweep` with ``backend=None`` (the
    auto-selected frontier engine, held bit-identical to the oracle by
    the equivalence matrix), so the pool sharding rules apply unchanged:
    serial on one core or below :data:`~repro.parallel.pool.MIN_PARALLEL_BATCH`
    engine passes, which a numpy batch reaches only at 1985 source sets
    (64 share a word-packed pass) and a pure batch at 32.
    """
    from repro.parallel.pool import parallel_sweep

    runs = parallel_sweep(
        graph,
        source_sets,
        max_rounds=max_rounds,
        workers=workers,
        chunksize=chunksize,
        collect_receives=True,
    )
    # receive_rounds_by_id is indexed by CSR node id, which follows
    # graph.nodes() order by construction.
    return [
        tuple(len(rounds) for rounds in run.receive_rounds_by_id)
        for run in runs
    ]


def _classify_serial(
    graph: Graph, masks: Iterable[int], witness_cap: int
) -> Tuple[int, List[int]]:
    """The in-process census loop (also the single-core fallback)."""
    from repro.fastpath.indexed import IndexedGraph

    index = IndexedGraph.of(graph)
    terminating = 0
    witnesses: List[int] = []
    for mask in masks:
        if evolve_arc_mask(index, mask)[0]:
            terminating += 1
        elif len(witnesses) < witness_cap:
            witnesses.append(mask)
    return terminating, witnesses
