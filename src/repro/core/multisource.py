"""Multi-source amnesiac flooding (the full paper's extension).

The brief announcement studies a single distinguished node; the
authors' full version generalises to an arbitrary non-empty initiator
set ``I`` (all members send in round 1; the forwarding rule is
unchanged).  The double-cover correspondence generalises too -- replace
BFS by set-BFS from ``{(v, 0) : v in I}`` -- so the oracle remains
exact, and the bounds become:

* bipartite with bipartition ``(X, Y)``: termination in exactly
  ``max(e(I intersect X), e(I intersect Y))`` rounds -- each side of
  the bipartition floods its own copy of the double cover
  independently (for ``|I| = 1`` this is Lemma 2.1's ``e(source)``);
* general: termination within ``e(I) + D + 1`` rounds.

These are checked by ``tests/core/test_multisource.py`` and swept by
``benchmarks/bench_claim_multisource.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError, DisconnectedGraphError
from repro.graphs.graph import Graph, Node
from repro.graphs.properties import bipartition, is_connected
from repro.graphs.traversal import diameter, set_eccentricity
from repro.core.amnesiac import FloodingRun, simulate
from repro.core.oracle import OraclePrediction, predict
from repro.parallel import parallel_sweep


@dataclass(frozen=True)
class MultiSourceBounds:
    """Termination bounds for AF from an initiator set ``I``.

    ``lower`` is the set eccentricity ``e(I)`` (information must reach
    the farthest node).  On bipartite graphs the exact round is known
    in closed form but it is *not* ``e(I)``: sources on the two sides
    of the bipartition land in the two different copies of the double
    cover and flood them independently, so the run lasts

        ``max(e(I intersect X), e(I intersect Y))``

    where ``(X, Y)`` is the bipartition (an empty side contributes 0).
    For a single source this collapses to Lemma 2.1's ``e(source)``.
    On non-bipartite graphs ``upper`` is the full paper's
    ``e(I) + D + 1`` and ``exact`` is ``None`` (the double-cover oracle
    still predicts the exact round, just not via a formula of ``e`` and
    ``D`` alone).
    """

    lower: int
    upper: int
    exact: Optional[int]
    bipartite: bool


def flood_from_set(
    graph: Graph,
    sources: Iterable[Node],
    max_rounds: Optional[int] = None,
) -> FloodingRun:
    """Run multi-source amnesiac flooding (fast simulator)."""
    source_list = list(sources)
    if not source_list:
        raise ConfigurationError("multi-source flooding needs a non-empty set")
    return simulate(graph, source_list, max_rounds=max_rounds)


def multi_source_bounds(graph: Graph, sources: Iterable[Node]) -> MultiSourceBounds:
    """The full paper's multi-source termination bounds.

    Raises :class:`DisconnectedGraphError` on disconnected input, like
    the single-source bound helper.
    """
    if not is_connected(graph):
        raise DisconnectedGraphError(
            "multi-source bounds are stated for connected graphs"
        )
    source_list = list(sources)
    if not source_list:
        raise ConfigurationError("multi-source bounds need a non-empty set")
    ecc = set_eccentricity(graph, source_list)
    parts = bipartition(graph)
    if parts is not None:
        per_side = [
            set_eccentricity(graph, side_sources)
            for side in parts
            if (side_sources := [v for v in source_list if v in side])
        ]
        exact = max(per_side) if per_side else 0
        return MultiSourceBounds(lower=ecc, upper=exact, exact=exact, bipartite=True)
    return MultiSourceBounds(
        lower=ecc, upper=ecc + diameter(graph) + 1, exact=None, bipartite=False
    )


def predict_multi_source(graph: Graph, sources: Iterable[Node]) -> OraclePrediction:
    """Exact multi-source prediction via set-BFS on the double cover."""
    return predict(graph, list(sources))


@dataclass(frozen=True)
class ReceiptCensus:
    """Who hears the message how often, under a multi-source flood.

    A surprise of the multi-source setting: **even bipartite graphs can
    deliver twice**.  Sources on the two sides of the bipartition flood
    the two copies of the double cover independently, and any node
    reachable in both copies receives once per copy.  The census
    reports the exact per-count node sets (predicted by the cover,
    verified against simulation in the tests).
    """

    once: Tuple[Node, ...]
    twice: Tuple[Node, ...]
    never: Tuple[Node, ...]

    def counts(self) -> Dict[int, int]:
        """Histogram {receipts: node count}."""
        return {0: len(self.never), 1: len(self.once), 2: len(self.twice)}


def receipt_census(graph: Graph, sources: Iterable[Node]) -> ReceiptCensus:
    """Classify every node by how many times it will receive the message.

    A batch-of-one :func:`receipt_census_batch`; census many source
    sets through the batch form instead, which indexes the graph once
    and shards across the pool.
    """
    return receipt_census_batch(graph, [list(sources)])[0]


def receipt_census_batch(
    graph: Graph,
    source_sets: Iterable[Iterable[Node]],
    workers: Optional[int] = None,
) -> List[ReceiptCensus]:
    """One :class:`ReceiptCensus` per source set, as a single batch.

    The whole batch runs as one ``backend=None`` sweep through
    :func:`repro.parallel.census.receipt_counts`: the graph indexes
    once, the auto-selected frontier engine collects the receive
    rounds, and the usual pool sharding rules apply.  Each census is
    bit-identical to the per-call :func:`receipt_census` (which is a
    batch of one) and to the explicit-cover
    :func:`~repro.core.oracle.predict` classification -- the
    regression tests pin both.
    """
    from repro.parallel.census import receipt_counts

    count_rows = receipt_counts(graph, list(source_sets), workers=workers)
    nodes = graph.nodes()
    censuses: List[ReceiptCensus] = []
    for counts in count_rows:
        once: List[Node] = []
        twice: List[Node] = []
        never: List[Node] = []
        for node, count in zip(nodes, counts):
            if count == 0:
                never.append(node)
            elif count == 1:
                once.append(node)
            else:
                twice.append(node)
        censuses.append(
            ReceiptCensus(
                once=tuple(once), twice=tuple(twice), never=tuple(never)
            )
        )
    return censuses


def all_pairs_termination(
    graph: Graph, pair_limit: Optional[int] = None
) -> List[Tuple[Tuple[Node, Node], int]]:
    """Termination rounds for two-source floods over node pairs.

    Enumerates unordered pairs in deterministic order (optionally capped
    at ``pair_limit`` pairs) -- used by the multi-source sweep benchmark
    to show how termination time shrinks as sources spread out.

    Runs as one :func:`repro.parallel.parallel_sweep` batch with
    ``backend=None``: the graph is CSR-indexed once, the frontier engine
    is auto-selected (:func:`repro.fastpath.engine.select_backend`),
    the quadratic pair enumeration is sharded across the machine's
    cores (serial below the pool's batch floor), and each pair flood
    collects only the scalar statistics.  The equivalence matrix holds
    the frontier engines bit-for-bit equal to the double-cover oracle,
    so the output is identical to predicting every pair from the cover.
    """
    nodes = graph.nodes()
    pairs: List[Tuple[Node, Node]] = []
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            if pair_limit is not None and len(pairs) >= pair_limit:
                break
            pairs.append((nodes[i], nodes[j]))
        if pair_limit is not None and len(pairs) >= pair_limit:
            break
    runs = parallel_sweep(graph, pairs)
    return [
        (pair, run.termination_round) for pair, run in zip(pairs, runs)
    ]
