"""The bipartite double cover, the reproduction's independent oracle.

For a graph ``G = (V, E)`` the bipartite double cover (the tensor
product ``G x K2``) is the graph on ``V x {0, 1}`` with an edge between
``(u, p)`` and ``(w, 1 - p)`` for every ``{u, w}`` in ``E``.  It is
always bipartite (parity alternates along every edge) and it is
connected iff ``G`` is connected and non-bipartite; for bipartite ``G``
it consists of two disjoint copies of ``G``.

The authors' full version of the paper shows that amnesiac flooding on
``G`` from source ``v`` is step-for-step equivalent to breadth-first
flooding on the double cover from ``(v, 0)``:

* node ``u`` holds/receives the message at round ``r >= 1`` exactly when
  ``dist((v, 0), (u, r mod 2)) == r``;
* the process terminates after round ``ecc((v, 0))`` computed inside the
  component of ``(v, 0)``.

Because this prediction is computed by plain BFS on a *different* graph,
it shares no code path with the round-by-round simulator and serves as a
strong correctness oracle in the property tests.  Of the three cover
BFS codes it is the one that guards the correspondence itself: it
builds the explicit tensor product as a :class:`Graph`, with no CSR
index and no ``2 * v + parity`` state encoding, so a bug in either
encoding cannot hide in both it and the CSR codes
(:func:`repro.fastpath.oracle_backend.cover_levels`, the full-statistics
reference, and :func:`repro.fastpath.bitset_oracle.termination_rounds`,
the word-packed termination lane).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.errors import NodeNotFoundError
from repro.graphs.graph import Graph, Node
from repro.graphs.traversal import multi_source_bfs_distances

CoverNode = Tuple[Node, int]


def double_cover(graph: Graph) -> Graph:
    """Construct the bipartite double cover ``G x K2``.

    Nodes of the cover are ``(node, parity)`` tuples with parity in
    ``{0, 1}``.
    """
    adjacency: Dict[CoverNode, List[CoverNode]] = {}
    for node in graph.nodes():
        for parity in (0, 1):
            adjacency[(node, parity)] = [
                (neighbour, 1 - parity) for neighbour in graph.neighbors(node)
            ]
    return Graph(adjacency)


def cover_distances(
    graph: Graph, sources: Iterable[Node]
) -> Dict[CoverNode, int]:
    """BFS distances in the double cover from ``{(v, 0) : v in sources}``.

    Only reachable cover nodes appear in the result.  For a single
    source ``v`` on a connected bipartite graph exactly the copy
    containing ``(v, 0)`` is reached; on a connected non-bipartite graph
    both copies of every node are reached.
    """
    cover = double_cover(graph)
    cover_sources = [(source, 0) for source in sources]
    for source in sources:
        if not graph.has_node(source):
            raise NodeNotFoundError(source)
    return multi_source_bfs_distances(cover, cover_sources)


def predicted_receive_rounds(
    graph: Graph, sources: Iterable[Node]
) -> Dict[Node, Tuple[int, ...]]:
    """Oracle: the exact rounds at which each node receives the message.

    For every node ``u``, the receive rounds are the finite distances
    ``dist((u, 0))`` and ``dist((u, 1))`` that are at least 1 (distance
    0 is the source holding the message before round 1, not a receipt).
    The tuple is sorted ascending and may be empty (node unreachable),
    length 1 (bipartite case) or length 2 (non-bipartite case).
    """
    distances = cover_distances(graph, sources)
    result: Dict[Node, Tuple[int, ...]] = {}
    for node in graph.nodes():
        rounds = sorted(
            distances[(node, parity)]
            for parity in (0, 1)
            if (node, parity) in distances and distances[(node, parity)] >= 1
        )
        result[node] = tuple(rounds)
    return result


def predicted_termination_round(graph: Graph, sources: Iterable[Node]) -> int:
    """Oracle: the round after which no message crosses any edge.

    This is the eccentricity of the source set ``{(v, 0)}`` within its
    reachable part of the double cover: the last receipt happens at that
    round, and receivers of the last round have nobody left to forward
    to.  Round 0 means the sources have no neighbours at all.
    """
    distances = cover_distances(graph, list(sources))
    return max(distances.values()) if distances else 0


def predicted_message_complexity(graph: Graph, sources: Iterable[Node]) -> int:
    """Oracle: total number of point-to-point messages sent before termination.

    Amnesiac flooding sends the message across every *cover* edge
    reachable from the source set exactly once (in one direction): a
    node that receives at round ``r`` (cover node ``(u, r mod 2)``)
    forwards along each incident cover edge not just used.  Concretely,
    each cover edge ``{(u, p), (w, 1-p)}`` with both endpoints reachable
    carries exactly one message, in order of BFS level; edges with one
    reachable endpoint carry one message (into the dead end ... which is
    impossible in a cover: reachability spreads across edges), so the
    count is the number of cover edges with at least one endpoint
    reachable from the sources.

    Note: an edge of the cover with a reachable endpoint has both
    endpoints reachable (BFS crosses it), so this is simply the number
    of edges in the union of reachable components.
    """
    cover = double_cover(graph)
    distances = multi_source_bfs_distances(
        cover, [(source, 0) for source in sources]
    )
    reachable = set(distances)
    count = 0
    for u, v in cover.edges():
        if u in reachable or v in reachable:
            count += 1
    return count


def predicted_round_message_counts(
    graph: Graph, sources: Iterable[Node]
) -> List[int]:
    """Oracle: directed messages sent in each round, first round first.

    Every reachable cover edge carries the message exactly once, and --
    the cover being bipartite -- its endpoints always sit on adjacent
    BFS levels, so the edge is crossed at round ``max`` of its endpoint
    distances.  Counting cover edges by that crossing round therefore
    reproduces the simulator's ``round_edge_counts`` exactly, without
    running a single round.

    This is the explicit-cover twin of the CSR reference
    (:mod:`repro.fastpath.oracle_backend`); the two share no code and
    cross-check each other in the tests.
    """
    distances = cover_distances(graph, list(sources))
    horizon = max(distances.values()) if distances else 0
    counts = [0] * horizon
    for a, b in double_cover(graph).edges():
        da = distances.get(a)
        db = distances.get(b)
        if da is None or db is None:
            continue
        counts[max(da, db) - 1] += 1
    return counts


def receives_exactly_once_everywhere(graph: Graph, source: Node) -> bool:
    """Oracle predicate: every reachable node receives the message exactly once.

    Equivalent to the source's component being bipartite (on a
    non-bipartite component every node, including the source, receives
    twice -- except the source, which receives once, having *held* the
    message at round 0).  The paper's proposed topology-detection
    application rests on this equivalence.
    """
    rounds = predicted_receive_rounds(graph, [source])
    if rounds[source]:
        return False
    return all(
        len(r) == 1 for node, r in rounds.items() if node != source and r
    )
