"""Termination rounds at word speed: the one cover BFS on a production path.

By the double-cover correspondence a flood from ``S`` stops after the
round equal to the BFS eccentricity of ``S x {0}`` in ``G x K2``, so
the paper's question -- after how many rounds does the flood stop? --
needs no per-round counts, sender sets or message totals.
:func:`termination_rounds` answers it for a whole batch of source sets,
64 runs per ``uint64`` word (run ``b`` lives in word ``b // 64``, bit
``b % 64``).

BFS level ``L`` from ``S x {0}`` holds only states of parity
``L mod 2``, so a level's frontier needs one word-row per *node*, not
per cover state; two visited arrays, one per parity, say which
``(node, parity)`` states each run has reached.  A level is one arc
gather of the frontier, one ``bitwise_or.reduceat`` over the CSR
blocks (the runs in which each node hears from a frontier neighbour),
one and-not against the visited array of the level's parity, and one
OR-reduce across nodes (the runs that found a new state).  The last
level at which a run finds a new state is its cover eccentricity,
i.e. its termination round.  Each level costs less than one round of
the numpy frontier engine, which :func:`repro.core.all_pairs_termination`
exploits whenever its batch would flood on that engine.

What this lane guards that the other two cover BFS codes cannot: it is
the only one that runs in production, word-packed over the shared CSR
index.  :func:`repro.fastpath.oracle_backend.cover_levels` is the
per-source reference that feeds full statistics and budget cut-offs,
and :mod:`repro.graphs.double_cover` builds the explicit tensor
product with no CSR or parity encoding; ``tests/fastpath/
test_termination_lane.py`` holds this lane equal to both.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.fastpath import oracle_backend
from repro.fastpath.indexed import IndexedGraph
from repro.fastpath.numpy_backend import _arrays, _np
from repro.fastpath.pure_backend import RawRun

WORD_BITS = 64
"""Runs per packed word (the uint64 bitset column width)."""

BLOCK_RUNS = 256
"""Runs per internal block: caps the gathered arc words at
``m * BLOCK_RUNS / 64`` however large the submitted batch is."""


def _require_numpy() -> None:
    if _np is None:  # pragma: no cover - callers route here only with numpy
        raise RuntimeError(
            "termination lane requested but numpy is not importable"
        )


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
    """One :func:`~repro.fastpath.oracle_backend.run` per source-id list.

    No ``repro`` caller remains; kept only for perfbench's binding
    table; delete with ROADMAP item 4.
    """
    return [
        oracle_backend.run(index, ids, budget, collect_senders, collect_receives)
        for ids in id_lists
    ]


__all__ = ["BLOCK_RUNS", "WORD_BITS", "run_batch", "termination_rounds"]
