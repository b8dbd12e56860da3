"""The bitset oracle: 64 floods per cover sweep, one BFS pass per batch.

The per-source oracle backend (:mod:`repro.fastpath.oracle_backend`)
answers one flood in O(n + m) by BFS over the implicit double cover.
A sweep-shaped oracle request -- any large homogeneous deterministic
batch named ``backend="oracle"`` -- asks the *same*
BFS question from many source sets over one frozen CSR index, and
those searches share all of their structure: every pass walks the same
arcs, only the seed sets differ.

This module word-packs that redundancy away.  Each cover state
``2 * v + parity`` carries a row of ``uint64`` words -- bit ``b`` of
the row is "run ``b`` has reached this state" -- so one frontier sweep
advances 64 runs per word per step:

* ``reached[s]`` accumulates the runs that have reached state ``s``;
* one BFS step ORs every frontier row into its neighbour states
  (neighbours of a node are distinct, so a fancy-indexed in-place OR
  is exact), masks out already-reached bits, and records the BFS level
  of every *newly set* bit in a per-run distance column;
* the sweep ends when no run gains a new state.

The result is the full ``(2n, batch)`` cover-level matrix of the batch
in O((n + m) * batch / 64) word operations -- the same asymptotics as
``batch`` single-source passes, but with a 64-way word parallelism and
numpy constants instead of a Python BFS per run.  Distances are plain
BFS levels, so every downstream statistic is **bit-identical** to the
per-source oracle by construction:

* heavy collections (sender sets, receive rounds) hand each run's
  level column to the *same*
  :func:`~repro.fastpath.oracle_backend.stats_from_levels` the
  per-source backend runs;
* the light sweep statistics (termination round, per-round message
  counts, totals -- the collection-free default of every sweep) are
  re-derived vectorised across the whole batch: one edge-crossing
  matrix per cover parity and one flat ``bincount`` per block, with
  every emitted value converted back to a Python int.

Word-packing layout: run ``b`` lives in word ``b // 64``, bit
``b % 64``; bit positions map to runs through the little-endian byte
order of ``uint64`` (the ``unpackbits(..., bitorder="little")``
decode), with an explicit byte-order normalisation for big-endian
hosts.  Batches larger than :data:`BLOCK_RUNS` process in blocks so
the dense level matrix stays small regardless of batch size.

Termination rounds alone (:func:`termination_rounds`) need far less
than the level matrix.  BFS level ``L`` from ``S x {0}`` holds only
states of parity ``L mod 2``, so a level's frontier needs one word-row
per *node*, not per cover state; two visited arrays, one per parity,
say which ``(node, parity)`` states each run has reached.  A level is
one arc gather of the frontier, one ``bitwise_or.reduceat`` over the
CSR blocks (the runs in which each node hears from a frontier
neighbour), one and-not against the visited array of the level's
parity, and one OR-reduce across nodes (the runs that found a new
state).  The last level at which a run finds a new state is its
cover eccentricity, i.e. its termination round.  No level is decoded
per state and nothing else is counted, so each level costs less than
one round of the numpy frontier engine, which
:func:`repro.core.all_pairs_termination` exploits whenever its batch
would flood on that engine.

Dispatch: this is an execution strategy for the **oracle** backend, not
a fourth backend name -- results still report ``backend="oracle"``.
:func:`repro.fastpath.engine.dispatch_batch` picks it for homogeneous
deterministic batches explicitly named ``backend="oracle"`` of at least
:data:`~repro.fastpath.engine.BITSET_MIN_BATCH` runs when numpy is
importable (never for variants: their steppers are stochastic
executions, not cover predictions), and every batch tier -- the serial
spec sweep, the :class:`~repro.parallel.SweepPool` chunk bodies and
the service's serial executor -- funnels through that one gate.
``backend=None`` never resolves to the oracle, so the lane serves the
cross-check, not the default path: on the workloads measured in
``BENCH_fastpath.json`` the auto-selected frontier engines beat it.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.fastpath.indexed import IndexedGraph
from repro.fastpath.numpy_backend import HAS_NUMPY, _arrays, _np
from repro.fastpath.oracle_backend import stats_from_levels
from repro.fastpath.pure_backend import RawRun

WORD_BITS = 64
"""Runs per packed word (the uint64 bitset column width)."""

BLOCK_RUNS = 256
"""Runs per internal block: caps the dense level matrix at
``2n * BLOCK_RUNS`` int32 entries (and the edge-crossing matrices at
``m * BLOCK_RUNS``, the termination sweep's gathered arc words at
``m * BLOCK_RUNS / 64``) however large the submitted batch is."""


def _require_numpy() -> None:
    if _np is None:  # pragma: no cover - guarded by the dispatcher
        raise RuntimeError(
            "bitset oracle requested but numpy is not importable"
        )


def cover_levels_batch(
    index: IndexedGraph, id_lists: Sequence[Sequence[int]]
) -> "object":
    """Cover BFS levels for a whole batch: one ``(2n, batch)`` matrix.

    Column ``b`` is exactly
    :func:`repro.fastpath.oracle_backend.cover_levels` of
    ``id_lists[b]`` (``-1`` for unreachable states); the batch floods
    in a single word-packed frontier sweep.
    """
    _require_numpy()
    arrays = _arrays(index)
    offsets = index.offsets
    targets = arrays.targets
    n = index.n
    batch = len(id_lists)
    words = -(-batch // WORD_BITS)  # ceil division; >= 1 tail included

    reached = _np.zeros((2 * n, words), dtype=_np.uint64)
    frontier = _np.zeros((2 * n, words), dtype=_np.uint64)
    acc = _np.zeros((2 * n, words), dtype=_np.uint64)
    dist = _np.full((2 * n, batch), -1, dtype=_np.int32)
    for position, source_ids in enumerate(id_lists):
        word = position >> 6
        bit = _np.uint64(1 << (position & 63))
        for source in source_ids:
            state = 2 * source
            reached[state, word] |= bit
            dist[state, position] = 0
    frontier[:] = reached
    # Sorted state ids: deterministic sweep order (results only depend
    # on the OR-accumulated words, but determinism costs nothing).
    active = _np.flatnonzero(reached.any(axis=1))

    level = 0
    while active.size:
        level += 1
        touched_parts = []
        for state in active.tolist():
            v = state >> 1
            start, stop = offsets[v], offsets[v + 1]
            if start == stop:
                continue
            # Crossing an arc flips the cover parity.  A node's CSR
            # neighbours are distinct, so the fancy-indexed in-place OR
            # hits every destination row exactly once.
            neighbour_states = 2 * targets[start:stop] + (1 - (state & 1))
            acc[neighbour_states] |= frontier[state]
            touched_parts.append(neighbour_states)
        frontier[active] = 0
        if not touched_parts:
            break
        touched = _np.unique(_np.concatenate(touched_parts))
        fresh = acc[touched] & ~reached[touched]
        acc[touched] = 0
        gained = fresh.any(axis=1)
        active = touched[gained]
        if not active.size:
            break
        fresh = fresh[gained]
        reached[active] |= fresh
        frontier[active] = fresh
        # Decode the new bits into (state row, run column) level writes.
        # Bit b of a word is run `word * 64 + b`, which is position b of
        # the little-endian byte decode; normalise on big-endian hosts.
        packed = fresh if _np.little_endian else fresh.astype("<u8")
        bits = _np.unpackbits(
            packed.view(_np.uint8), axis=1, bitorder="little"
        )[:, :batch]
        rows, cols = bits.nonzero()
        dist[active[rows], cols] = level
    return dist


def termination_rounds(
    index: IndexedGraph, id_lists: Sequence[Sequence[int]]
) -> List[int]:
    """The termination round of every source-id list, word-packed.

    Element ``b`` equals the ``termination_round`` of a full flood from
    ``id_lists[b]`` (a repeated id seeds its node once) on any engine,
    with no round budget: a plain flood always stops.  Every value is a
    plain Python ``int``.
    """
    _require_numpy()
    arrays = _arrays(index)
    targets = arrays.targets
    starts = arrays.starts
    senders = arrays.senders
    rounds: List[int] = []
    for block_start in range(0, len(id_lists), BLOCK_RUNS):
        block = id_lists[block_start : block_start + BLOCK_RUNS]
        words = -(-len(block) // WORD_BITS)
        rows: List[int] = []
        columns: List[int] = []
        bits: List[int] = []
        for position, source_ids in enumerate(block):
            for source in source_ids:
                rows.append(source)
                columns.append(position >> 6)
                bits.append(1 << (position & 63))
        # Level 0: every run's sources, in the even copy of the cover.
        frontier = _np.zeros((index.n, words), dtype=_np.uint64)
        _np.bitwise_or.at(
            frontier, (rows, columns), _np.array(bits, dtype=_np.uint64)
        )
        last = _np.zeros(words * WORD_BITS, dtype=_np.int64)
        # Isolated nodes have no arcs, so they are neither reduceat
        # segments nor ever reached: visited rows follow ``senders``.
        # A zero-arc graph floods no round at all.
        if senders.size:
            visited = (
                _np.take(frontier, senders, axis=0),
                _np.zeros((senders.size, words), dtype=_np.uint64),
            )
            level = 0
            while True:
                level += 1
                # Per sender node, the runs in which some neighbour is
                # on the frontier: its state of this level's parity.
                fresh = _np.bitwise_or.reduceat(
                    _np.take(frontier, targets, axis=0), starts, axis=0
                )
                seen = visited[level & 1]
                fresh &= ~seen
                alive = _np.bitwise_or.reduce(fresh, axis=0)
                if not alive.any():
                    break
                seen |= fresh
                frontier[senders] = fresh
                packed = alive if _np.little_endian else alive.astype("<u8")
                found = _np.unpackbits(packed.view(_np.uint8), bitorder="little")
                last[found.astype(bool)] = level
        rounds.extend(last[: len(block)].tolist())
    return rounds


def run_batch(
    index: IndexedGraph,
    id_lists: Sequence[Sequence[int]],
    budget: int,
    collect_senders: bool = False,
    collect_receives: bool = False,
) -> List[RawRun]:
    """Run a batch of oracle floods word-packed; one RawRun per source set.

    Every element is bit-identical to
    ``oracle_backend.run(index, ids, budget, ...)`` of the matching
    source-id list -- the equivalence matrix in
    ``tests/fastpath/test_bitset_oracle.py`` pins this across graph
    families, batch shapes and budget cut-offs.
    """
    _require_numpy()
    results: List[RawRun] = []
    for start in range(0, len(id_lists), BLOCK_RUNS):
        block = id_lists[start : start + BLOCK_RUNS]
        dist = cover_levels_batch(index, block)
        if collect_senders or collect_receives:
            # Heavy collections are per-run payloads anyway: hand each
            # level column to the per-source statistics code verbatim.
            for offset in range(len(block)):
                results.append(
                    stats_from_levels(
                        index,
                        dist[:, offset].tolist(),
                        budget,
                        collect_senders=collect_senders,
                        collect_receives=collect_receives,
                    )
                )
        else:
            results.extend(_light_stats(index, dist, budget))
    return results


def _light_stats(
    index: IndexedGraph, dist: "object", budget: int
) -> List[RawRun]:
    """Collection-free statistics for one level-matrix block, vectorised.

    The sweep default: termination flag, per-round directed-message
    counts and totals only.  Each undirected cover edge
    ``{(v, p), (w, 1 - p)}`` carries one message at the max of its
    endpoint levels; enumerating CSR slots with ``owner < target``
    visits every cover edge once per parity, and a flat per-run
    ``bincount`` over the crossing rounds rebuilds every run's
    ``round_counts`` without a Python edge loop.
    """
    arrays = _arrays(index)
    edge_mask = arrays.owner < arrays.targets
    tails = arrays.owner[edge_mask]
    heads = arrays.targets[edge_mask]
    batch = dist.shape[1]

    even = dist[0::2]
    odd = dist[1::2]
    horizon = dist.max(axis=0)  # per run: the true termination round T
    terminated = horizon <= budget
    executed = _np.minimum(horizon, budget)
    width = int(executed.max()) + 1
    counts = _np.zeros(batch * width, dtype=_np.int64)
    for tail_levels, head_levels in (
        (even[tails], odd[heads]),
        (odd[tails], even[heads]),
    ):
        crossing = _np.maximum(tail_levels, head_levels)
        valid = (tail_levels >= 0) & (head_levels >= 0)
        valid &= crossing <= executed[_np.newaxis, :]
        rows, cols = valid.nonzero()
        if rows.size:
            flat = cols * width + crossing[rows, cols]
            counts += _np.bincount(flat, minlength=batch * width)
    counts = counts.reshape(batch, width)

    results: List[RawRun] = []
    for position in range(batch):
        cutoff = int(executed[position])
        round_counts = [int(c) for c in counts[position, 1 : cutoff + 1]]
        results.append(
            (
                bool(terminated[position]),
                round_counts,
                sum(round_counts),
                None,
                None,
            )
        )
    return results


__all__ = [
    "BLOCK_RUNS",
    "HAS_NUMPY",
    "WORD_BITS",
    "cover_levels_batch",
    "run_batch",
    "termination_rounds",
]
