"""Wavefront analysis: the two-wave anatomy of amnesiac flooding.

On a bipartite graph AF is one BFS wave.  On a non-bipartite graph the
double cover says there are exactly **two** waves through every node:

* the *primary* wave arrives at round ``d(v, u)`` (the BFS distance);
* the *echo* wave arrives at round ``d_cover((v,0), (u, 1 - d(v,u) % 2))``
  -- the shortest walk of the opposite parity, created where the flood
  crosses an odd cycle.

This module computes the decomposition, the exact per-round receiver
sets predicted by the cover (a per-round sharpening of the oracle), and
frontier-size profiles (how many edges carry ``M`` in each round -- the
network-load curve a deployment would care about).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

# The fast path first: it imports repro.api.spec on the way in, and
# importing the api package first would close an import cycle.
from repro.fastpath import run_spec
from repro.api.spec import FloodSpec
from repro.graphs.double_cover import cover_distances
from repro.graphs.graph import Graph, Node
from repro.graphs.traversal import bfs_distances
from repro.core.amnesiac import simulate


@dataclass(frozen=True)
class WaveDecomposition:
    """Per-node arrival rounds of the primary and echo waves.

    ``primary[u]`` is the BFS arrival (round ``d(source, u)``;
    the source itself maps to 0).  ``echo[u]`` is the second arrival or
    ``None`` when no echo reaches ``u`` (bipartite component).
    ``odd_core_distance`` is the earliest echo round minus one -- how
    long the flood runs before the first odd cycle reflects it.
    """

    source: Node
    primary: Dict[Node, int]
    echo: Dict[Node, Optional[int]]

    @property
    def has_echo(self) -> bool:
        return any(value is not None for value in self.echo.values())

    @property
    def first_echo_round(self) -> Optional[int]:
        rounds = [value for value in self.echo.values() if value is not None]
        return min(rounds) if rounds else None

    def echo_lag(self) -> Dict[Node, Optional[int]]:
        """Per node: rounds between primary and echo arrivals."""
        return {
            node: (self.echo[node] - self.primary[node])
            if self.echo[node] is not None
            else None
            for node in self.primary
        }


def wave_decomposition(graph: Graph, source: Node) -> WaveDecomposition:
    """Split every node's receive rounds into primary wave and echo."""
    distances = bfs_distances(graph, source)
    cover = cover_distances(graph, [source])
    primary: Dict[Node, int] = {}
    echo: Dict[Node, Optional[int]] = {}
    for node, distance in distances.items():
        primary[node] = distance
        other_parity = 1 - distance % 2
        echo[node] = cover.get((node, other_parity))
    return WaveDecomposition(source=source, primary=primary, echo=echo)


def predicted_round_sets(graph: Graph, sources: List[Node]) -> List[Set[Node]]:
    """The exact receiver sets ``R_1, ..., R_T`` from the double cover.

    ``R_i = { u : d_cover(S, (u, i mod 2)) == i }`` -- a per-round
    sharpening of the termination oracle, verified against simulation in
    the property tests.
    """
    cover = cover_distances(graph, sources)
    if not cover:
        return []
    horizon = max(cover.values())
    round_sets: List[Set[Node]] = []
    for round_number in range(1, horizon + 1):
        members = {
            node
            for node in graph.nodes()
            if cover.get((node, round_number % 2)) == round_number
        }
        round_sets.append(members)
    return round_sets


def frontier_profile(graph: Graph, source: Node) -> List[int]:
    """Edges carrying ``M`` per round -- the network load curve.

    Bipartite graphs show a single BFS bulge; non-bipartite graphs a
    second bulge as the echo wave plays out.  Collected on the fast
    path with only per-round counters -- no per-node bookkeeping -- so
    profiling large graphs costs O(messages) flat.
    """
    run = run_spec(FloodSpec(graph=graph, sources=(source,)))
    return list(run.round_edge_counts)


@dataclass(frozen=True)
class LoadSummary:
    """Peak and total network load of one flood."""

    peak_edges_per_round: int
    peak_round: int
    total_messages: int
    rounds: int

    @property
    def mean_edges_per_round(self) -> float:
        return self.total_messages / self.rounds if self.rounds else 0.0


def load_summary(graph: Graph, source: Node) -> LoadSummary:
    """Summarise the load curve of one flood."""
    profile = frontier_profile(graph, source)
    if not profile:
        return LoadSummary(0, 0, 0, 0)
    peak = max(profile)
    return LoadSummary(
        peak_edges_per_round=peak,
        peak_round=profile.index(peak) + 1,
        total_messages=sum(profile),
        rounds=len(profile),
    )


def last_receivers(graph: Graph, source: Node) -> Tuple[Set[Node], int]:
    """Where the flood dies: the final round's receivers and that round.

    On a connected bipartite graph these are the nodes farthest from
    the source (the BFS periphery relative to ``source``); on a
    non-bipartite graph they are the nodes whose *echo* arrives last --
    often near the source itself, because the second wave travels back.
    Returns ``(nodes, round)``; an isolated source yields
    ``(set(), 0)``.
    """
    cover = cover_distances(graph, [source])
    finite = {key: value for key, value in cover.items() if value >= 1}
    if not finite:
        return set(), 0
    final_round = max(finite.values())
    nodes = {node for (node, _), value in finite.items() if value == final_round}
    return nodes, final_round


def verify_round_sets_against_simulation(graph: Graph, source: Node) -> bool:
    """Check the per-round cover prediction against a real run."""
    run = simulate(graph, [source])
    predicted = predicted_round_sets(graph, [source])
    simulated = [
        {
            node
            for node, rounds in run.receive_rounds.items()
            if round_number in rounds
        }
        for round_number in range(1, run.termination_round + 1)
    ]
    return predicted == simulated
