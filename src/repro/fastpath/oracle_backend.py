"""The double-cover oracle: flooding statistics from the cover, no flooding.

The authors' full version proves that amnesiac flooding on ``G`` from a
source set ``I`` is step-for-step equivalent to BFS on the bipartite
double cover ``G x K2`` from ``{(v, 0) : v in I}`` (see
:mod:`repro.graphs.double_cover`, which implements the correspondence
on the explicit cover graph and serves as this backend's independent
cross-check).  That equivalence pins down *every* statistic the
frontier engines report, in one O(n + m) BFS pass:

* node ``u`` receives exactly at the finite cover distances
  ``dist((u, 0))``, ``dist((u, 1))`` that are ``>= 1``;
* every cover edge carries exactly one directed message, at round
  ``max`` of its endpoint distances (the cover is bipartite, so the two
  endpoints of an edge always sit on adjacent BFS levels), travelling
  from the lower level to the higher -- which yields the per-round
  directed-message counts and the per-round sender sets;
* the process terminates after round ``max(dist)``.

:func:`run` therefore emits a :data:`~repro.fastpath.pure_backend.RawRun`
bit-for-bit identical to the frontier engines -- including budget
cut-off truncation -- without ever materialising a frontier.  Cost is
O(n + m) *total*, independent of the number of rounds.  That is not a
win over the pure engine: the cover correspondence implies every flood
sends at most one message per cover edge, so the pure engine's total
work is O(n + m + rounds) too, with smaller constants, and the
word-packed numpy engine wins on short dense floods.  So this is not a
backend; no request routes here.

What it adds is a second, shared-nothing implementation of every
statistic, derived from the proof rather than the process: the
reference column of the equivalence matrix, which tests call by name
(``oracle_backend.run(index, source_ids, budget)``).  Of the three
cover BFS codes it is the one that guards the *full* statistics --
per-round counts, sender sets, receive rounds -- and budget cut-offs
on the shared CSR index; :mod:`repro.graphs.double_cover` builds the
explicit tensor product with no CSR or parity encoding, and
:func:`repro.fastpath.bitset_oracle.termination_rounds` is the
word-packed production lane for termination rounds alone.

The BFS runs on the *implicit* cover: state ``2 * v + parity`` over the
CSR arrays of the :class:`~repro.fastpath.indexed.IndexedGraph`, so no
cover graph object is ever built and the index is shared with the
frontier backends (and with :mod:`repro.parallel` workers).

The one thing the oracle cannot do is arbitrary initial conditions
(:func:`~repro.fastpath.engine.step_arc_mask` configurations): the
cover correspondence holds for source-style starts only.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.fastpath.indexed import IndexedGraph
from repro.fastpath.pure_backend import RawRun


def cover_levels(index: IndexedGraph, source_ids: Sequence[int]) -> List[int]:
    """BFS levels of the implicit double cover, ``-1`` for unreachable.

    State ``2 * v + parity`` encodes cover node ``(v, parity)``; the
    search starts from ``{2 * s : s in source_ids}`` (parity 0) and
    flips parity across every arc.
    """
    offsets = index.offsets
    targets = index.targets
    dist = [-1] * (2 * index.n)
    frontier = []
    for source in source_ids:
        state = 2 * source
        if dist[state] < 0:
            dist[state] = 0
            frontier.append(state)
    # Level-synchronous BFS: the whole frontier shares one distance, so
    # no per-state distance reads and the queue is two plain lists.
    d = 0
    while frontier:
        d += 1
        next_frontier = []
        push = next_frontier.append
        for state in frontier:
            v = state >> 1
            next_parity = 1 - (state & 1)
            for w in targets[offsets[v] : offsets[v + 1]]:
                nxt = 2 * w + next_parity
                if dist[nxt] < 0:
                    dist[nxt] = d
                    push(nxt)
        frontier = next_frontier
    return dist


def run(
    index: IndexedGraph,
    source_ids: Sequence[int],
    budget: int,
    collect_senders: bool = True,
    collect_receives: bool = True,
) -> RawRun:
    """Predict a flood from ``source_ids`` under a round budget.

    Same contract as the frontier backends: statistics cover rounds
    ``1 .. min(T, budget)`` and the run is flagged non-terminated iff
    round ``budget + 1`` would still send.
    """
    dist = cover_levels(index, source_ids)
    return stats_from_levels(
        index,
        dist,
        budget,
        collect_senders=collect_senders,
        collect_receives=collect_receives,
    )


def stats_from_levels(
    index: IndexedGraph,
    dist: Sequence[int],
    budget: int,
    collect_senders: bool = True,
    collect_receives: bool = True,
) -> RawRun:
    """Turn one run's cover levels into its :data:`RawRun` statistics.

    ``dist`` is a :func:`cover_levels` vector (length ``2 * n``, ``-1``
    for unreachable cover states).  Each undirected cover edge carries
    one message at the max of its endpoint levels.
    """
    horizon = max(dist)  # the true termination round T (0 if no arcs)
    terminated = horizon <= budget
    executed = horizon if terminated else budget

    offsets = index.offsets
    targets = index.targets
    round_counts = [0] * executed
    sender_sets: Optional[List[set]] = (
        [set() for _ in range(executed)] if collect_senders else None
    )
    # Each undirected cover edge {(v, p), (w, 1-p)} carries one message;
    # enumerating slots with v < w visits every cover edge exactly once
    # per parity.  Budget truncation just skips rounds past `executed`.
    for v in range(index.n):
        dv0 = dist[2 * v]
        dv1 = dist[2 * v + 1]
        for w in targets[offsets[v] : offsets[v + 1]]:
            if w < v:
                continue
            w2 = 2 * w
            for dv, dw in ((dv0, dist[w2 + 1]), (dv1, dist[w2])):
                if dv < 0 or dw < 0:
                    continue
                crossing = dv if dv > dw else dw
                if crossing > executed:
                    continue
                round_counts[crossing - 1] += 1
                if sender_sets is not None:
                    sender_sets[crossing - 1].add(v if dv < dw else w)

    sender_rounds: Optional[List[List[int]]] = None
    if sender_sets is not None:
        sender_rounds = [sorted(senders) for senders in sender_sets]

    receives: Optional[List[List[int]]] = None
    if collect_receives:
        receives = [
            sorted(
                d
                for d in (dist[2 * v], dist[2 * v + 1])
                if 1 <= d <= executed
            )
            for v in range(index.n)
        ]

    return terminated, round_counts, sum(round_counts), sender_rounds, receives
