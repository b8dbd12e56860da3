"""Closed-form termination bounds as oracles for the cover BFS codes.

The related work gives round-count formulas strong enough to use as
independent test oracles (Hussak & Trehan's full version; Turau,
"Analysis of Amnesiac Flooding", arXiv 2002.10752; "Terminating cases
of flooding", arXiv 2009.05776).  For a connected graph and initiator
set ``I`` with set eccentricity ``e(I)`` and diameter ``D``:

* bipartite with bipartition ``(X, Y)``: termination in **exactly**
  ``max(e(I & X), e(I & Y))`` rounds (Lemma 2.1's ``e(v)`` for a
  single source);
* non-bipartite: ``e(I) + 1 <= T <= min(e(I) + D + 1, 2D + 1)`` --
  the farthest node sits in both copies of the double cover, and its
  two receive rounds have different parities, so at least one exceeds
  ``e(I)``;
* odd cycles ``C_n`` from one source: exactly ``n`` rounds; even
  cycles: exactly ``n / 2``.

The measured side comes from the word-packed termination lane
(:func:`repro.fastpath.bitset_oracle.termination_rounds`), and the
budget cases from the per-source oracle
(:func:`repro.fastpath.oracle_backend.run`), so these tests cross-check
both against formulas that share *no* code with any engine -- they are
computed from eccentricities and bipartitions, not from cover BFS.
"""

from __future__ import annotations

import pytest

from repro.core import multi_source_bounds
from repro.fastpath import IndexedGraph
from repro.fastpath import bitset_oracle, oracle_backend
from repro.fastpath.numpy_backend import HAS_NUMPY
from repro.graphs import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    hypercube_graph,
    path_graph,
    petersen_graph,
    random_tree,
    star_graph,
    wheel_graph,
)
from repro.graphs.properties import is_bipartite

pytestmark = pytest.mark.skipif(
    not HAS_NUMPY, reason="the termination lane needs numpy"
)


def tier1_families():
    return [
        pytest.param(cycle_graph(9), id="odd-cycle-9"),
        pytest.param(cycle_graph(33), id="odd-cycle-33"),
        pytest.param(cycle_graph(8), id="even-cycle-8"),
        pytest.param(cycle_graph(32), id="even-cycle-32"),
        pytest.param(path_graph(11), id="path-11"),
        pytest.param(star_graph(9), id="star-9"),
        pytest.param(random_tree(24, seed=6), id="tree-24"),
        pytest.param(grid_graph(4, 6), id="grid-4x6"),
        pytest.param(hypercube_graph(4), id="hypercube-4"),
        pytest.param(complete_bipartite_graph(3, 5), id="k3-5"),
        pytest.param(complete_graph(7), id="clique-7"),
        pytest.param(petersen_graph(), id="petersen"),
        pytest.param(wheel_graph(8), id="wheel-8"),
        pytest.param(
            erdos_renyi(40, 0.12, seed=8, connected=True), id="er-40"
        ),
        pytest.param(
            erdos_renyi(60, 0.08, seed=21, connected=True), id="er-60"
        ),
    ]


def source_batches(graph):
    """Single sources, pairs, and one spread-out set per graph."""
    nodes = graph.nodes()
    batches = [[node] for node in nodes]
    batches.extend(
        [nodes[i], nodes[(i + len(nodes) // 2) % len(nodes)]]
        for i in range(0, len(nodes), 3)
    )
    batches.append(list(nodes[:: max(1, len(nodes) // 4)]))
    return batches


def measured_rounds(graph, batches):
    index = IndexedGraph.of(graph)
    id_lists = [index.resolve_sources(sources) for sources in batches]
    return bitset_oracle.termination_rounds(index, id_lists)


class TestClosedFormBounds:
    @pytest.mark.parametrize("graph", tier1_families())
    def test_measured_rounds_inside_bounds(self, graph):
        batches = source_batches(graph)
        rounds = measured_rounds(graph, batches)
        for sources, measured in zip(batches, rounds):
            bounds = multi_source_bounds(graph, sources)
            if bounds.bipartite:
                # Exact: max of the per-side set eccentricities.
                assert measured == bounds.exact, (sources, measured, bounds)
            else:
                # e(I) + 1 <= T <= e(I) + D + 1 (and <= 2D + 1, which
                # the upper bound already implies since e(I) <= D).
                assert bounds.lower + 1 <= measured <= bounds.upper, (
                    sources,
                    measured,
                    bounds,
                )

    @pytest.mark.parametrize("n", (5, 9, 21, 65))
    def test_odd_cycles_run_exactly_n_rounds(self, n):
        graph = cycle_graph(n)
        rounds = measured_rounds(graph, [[v] for v in graph.nodes()])
        assert rounds == [n] * n

    @pytest.mark.parametrize("n", (6, 8, 32, 64))
    def test_even_cycles_run_exactly_half_n_rounds(self, n):
        graph = cycle_graph(n)
        rounds = measured_rounds(graph, [[v] for v in graph.nodes()])
        assert rounds == [n // 2] * n

    @pytest.mark.parametrize("graph", tier1_families())
    def test_bipartite_families_are_exact_everywhere(self, graph):
        if not is_bipartite(graph):
            pytest.skip("non-bipartite family")
        batches = source_batches(graph)
        rounds = measured_rounds(graph, batches)
        for sources, measured in zip(batches, rounds):
            assert measured == multi_source_bounds(graph, sources).exact

    @pytest.mark.parametrize("graph", tier1_families())
    def test_budget_at_the_bound_terminates(self, graph):
        """Cut at its closed-form round a flood has stopped; one round
        earlier it still sends."""
        index = IndexedGraph.of(graph)
        for sources in source_batches(graph):
            bounds = multi_source_bounds(graph, sources)
            budget = bounds.exact if bounds.bipartite else bounds.upper
            ids = index.resolve_sources(sources)
            terminated, counts, *_ = oracle_backend.run(
                index, ids, budget, False, False
            )
            assert terminated and len(counts) <= budget, sources
            if len(counts) > 1:
                early = oracle_backend.run(
                    index, ids, len(counts) - 1, False, False
                )
                assert not early[0], sources
                assert early[1] == counts[:-1], sources
