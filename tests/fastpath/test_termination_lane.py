"""The termination-only cover sweep against full floods, run for run.

:func:`repro.fastpath.bitset_oracle.termination_rounds` answers only
"after how many rounds does the flood stop?": the last BFS level at
which a run finds a new state of the double cover, 64 source sets per
word, one frontier word-row per node.  Its contract is that every
value equals the ``termination_round`` of the full flood of the same
ids.  This suite pins:

* every value against the pure engine and the per-source oracle, on
  the backend-resolution matrix's graph families, at batch sizes
  around the word boundary (1, 63, 64, 65, 130) and the lane's block
  boundary, for single-source, two-source and duplicate-id sets;
* the closed forms: odd cycles run n rounds, even cycles n / 2, and a
  bipartite grid ``multi_source_bounds(...).exact``;
* the graphs ``reduceat`` can misread: a zero-arc graph, isolated
  nodes in the middle and at the last id, and a disconnected graph;
* emitted types: every value is a Python ``int``;
* the routing of :func:`repro.core.all_pairs_termination`: on
  numpy-routed graphs it answers from the lane, never calling
  ``parallel_sweep``, with output equal to the full sweep's; a
  pure-routed graph still runs the full sweep.
"""

from __future__ import annotations

import random

import pytest

from repro.core import all_pairs_termination, multi_source_bounds
from repro.core import multisource
from repro.fastpath import IndexedGraph, select_backend
from repro.fastpath import bitset_oracle, oracle_backend, pure_backend
from repro.fastpath.engine import NUMPY, PURE
from repro.fastpath.numpy_backend import HAS_NUMPY
from repro.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    petersen_graph,
)
from repro.parallel import parallel_sweep
from repro.sync.engine import default_round_budget

pytestmark = pytest.mark.skipif(
    not HAS_NUMPY, reason="the termination lane needs numpy"
)

# Around the uint64 word boundary, plus a batch spilling into a
# second block of the lane.
BATCH_SIZES = (1, 63, 64, 65, 130, bitset_oracle.BLOCK_RUNS + 1)


def isolated_tail_graph():
    """Isolated nodes in the middle and at the last id (5 and 7)."""
    adjacency = {0: [1, 2], 1: [0, 2], 2: [0, 1, 3], 3: [2, 4], 4: [3, 6]}
    adjacency.update({5: [], 6: [4], 7: []})
    return Graph(adjacency)


def families():
    """The backend-resolution matrix's families, plus the misreadable ones."""
    return [
        pytest.param(cycle_graph(9), id="odd-cycle-9"),
        pytest.param(cycle_graph(65), id="odd-cycle-65"),
        pytest.param(cycle_graph(8), id="even-cycle-8"),
        pytest.param(complete_bipartite_graph(3, 4), id="k3-4"),
        pytest.param(petersen_graph(), id="petersen"),
        pytest.param(grid_graph(4, 5), id="grid-4x5"),
        pytest.param(path_graph(7), id="path-7"),
        pytest.param(erdos_renyi(60, 0.08, seed=3, connected=True), id="er-60"),
        pytest.param(
            Graph.from_edges([(0, 1), (1, 2), (3, 4)]), id="disconnected"
        ),
        pytest.param(Graph({v: [] for v in range(4)}), id="zero-arcs"),
        pytest.param(isolated_tail_graph(), id="isolated-tail"),
    ]


def seeded_batch(index, batch_size, seed):
    """Random source-id lists of one to three ids, repeats allowed."""
    rng = random.Random(seed)
    return [
        [rng.randrange(index.n) for _ in range(rng.choice((1, 1, 2, 3)))]
        for _ in range(batch_size)
    ]


def full_rounds(graph, index, id_lists):
    """Per list, the full flood's termination round on pure and on the oracle."""
    budget = default_round_budget(graph)
    rounds = []
    for ids in id_lists:
        pure = pure_backend.run(index, ids, budget, False, False)
        oracle = oracle_backend.run(index, ids, budget, False, False)
        assert pure[0] and oracle[0], "a plain flood terminates"
        assert len(pure[1]) == len(oracle[1])
        rounds.append(len(pure[1]))
    return rounds


def lane(graph, id_lists):
    rounds = bitset_oracle.termination_rounds(IndexedGraph.of(graph), id_lists)
    assert all(type(value) is int for value in rounds)
    return rounds


class TestFullFloodEquivalence:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("graph", families())
    def test_seeded_batches(self, graph, batch_size):
        index = IndexedGraph.of(graph)
        id_lists = seeded_batch(index, batch_size, seed=batch_size)
        assert lane(graph, id_lists) == full_rounds(graph, index, id_lists)

    @pytest.mark.parametrize("graph", families())
    def test_every_single_source(self, graph):
        index = IndexedGraph.of(graph)
        id_lists = [[v] for v in range(index.n)]
        assert lane(graph, id_lists) == full_rounds(graph, index, id_lists)

    @pytest.mark.parametrize("graph", families())
    def test_two_source_and_duplicate_sets(self, graph):
        index = IndexedGraph.of(graph)
        n = index.n
        id_lists = [[v, (v + 1 + v // 2) % n] for v in range(n)]
        id_lists += [[v, v] for v in range(n)]
        id_lists += [[v, (v + 2) % n, v] for v in range(n)]
        assert lane(graph, id_lists) == full_rounds(graph, index, id_lists)

    def test_a_run_does_not_depend_on_its_word(self):
        graph = erdos_renyi(60, 0.08, seed=3, connected=True)
        index = IndexedGraph.of(graph)
        target = [5, 41]
        expected = lane(graph, [target])
        for position in (0, 63, 64, 129, bitset_oracle.BLOCK_RUNS):
            id_lists = seeded_batch(index, position + 3, seed=position)
            id_lists[position] = target
            assert lane(graph, id_lists)[position] == expected[0]

    def test_empty_batch(self):
        assert lane(cycle_graph(5), []) == []


class TestClosedForms:
    @pytest.mark.parametrize("n", [3, 9, 65, 129])
    def test_odd_cycle_runs_n_rounds(self, n):
        assert lane(cycle_graph(n), [[v] for v in range(n)]) == [n] * n

    @pytest.mark.parametrize("n", [4, 8, 64, 130])
    def test_even_cycle_runs_half_n_rounds(self, n):
        assert lane(cycle_graph(n), [[v] for v in range(n)]) == [n // 2] * n

    def test_grid_matches_the_bipartite_exact_form(self):
        graph = grid_graph(6, 7)
        nodes = graph.nodes()
        rng = random.Random(11)
        source_sets = [[v] for v in nodes]
        source_sets += [rng.sample(nodes, 2) for _ in range(70)]
        source_sets += [rng.sample(nodes, 3) for _ in range(70)]
        index = IndexedGraph.of(graph)
        id_lists = [index.resolve_sources(sources) for sources in source_sets]
        assert lane(graph, id_lists) == [
            multi_source_bounds(graph, sources).exact for sources in source_sets
        ]


class TestMisreadableGraphs:
    def test_zero_arc_graph_floods_no_round(self):
        graph = Graph({v: [] for v in range(5)})
        assert lane(graph, [[v] for v in range(5)] + [[0, 4]]) == [0] * 6

    def test_isolated_nodes_mid_graph_and_at_the_last_id(self):
        graph = isolated_tail_graph()
        index = IndexedGraph.of(graph)
        id_lists = [[5], [7], [5, 7], [0, 5], [6, 7], [4], [0]]
        rounds = lane(graph, id_lists)
        assert rounds[:3] == [0, 0, 0]
        assert rounds == full_rounds(graph, index, id_lists)

    def test_disconnected_components_flood_independently(self):
        graph = Graph.from_edges([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5)])
        index = IndexedGraph.of(graph)
        ids = index.ids
        # A triangle (odd cycle: 3 rounds) beside a path (e(end) = 2).
        id_lists = [[ids[0]], [ids[3]], [ids[4]], [ids[0], ids[3]]]
        assert lane(graph, id_lists) == [3, 2, 1, 3]
        assert lane(graph, id_lists) == full_rounds(graph, index, id_lists)


@pytest.fixture(scope="module")
def er2000():
    return erdos_renyi(2000, 8.0 / 2000, seed=7, connected=True)


def spy_parallel_sweep(monkeypatch):
    calls = []
    real = multisource.parallel_sweep

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(multisource, "parallel_sweep", spy)
    return calls


class TestAllPairsRouting:
    @pytest.mark.parametrize(
        "which, pair_limit",
        [
            pytest.param("er2000", 512, id="er2000-512"),
            pytest.param("k70", None, id="k70-all"),
        ],
    )
    def test_numpy_routed_graphs_answer_from_the_lane(
        self, monkeypatch, er2000, which, pair_limit
    ):
        graph = er2000 if which == "er2000" else complete_graph(70)
        assert select_backend(IndexedGraph.of(graph)) == NUMPY
        calls = spy_parallel_sweep(monkeypatch)
        result = all_pairs_termination(graph, pair_limit=pair_limit)
        assert calls == []
        pairs = [pair for pair, _ in result]
        expected = len(pairs) if pair_limit is None else pair_limit
        assert len(pairs) == expected
        assert [rounds for _, rounds in result] == [
            run.termination_round for run in parallel_sweep(graph, pairs)
        ]
        assert all(type(rounds) is int for _, rounds in result)

    def test_pure_routed_graph_runs_the_full_sweep(self, monkeypatch):
        graph = grid_graph(5, 6)
        assert select_backend(IndexedGraph.of(graph)) == PURE
        calls = spy_parallel_sweep(monkeypatch)
        result = all_pairs_termination(graph, pair_limit=40)
        assert len(calls) == 1
        index = IndexedGraph.of(graph)
        id_lists = [index.resolve_sources(pair) for pair, _ in result]
        assert [rounds for _, rounds in result] == lane(graph, id_lists)
