"""The word-packed lanes against the double-cover reference, run for run.

Two production lanes pack many floods into machine words: the numpy
frontier engine (:func:`repro.fastpath.numpy_backend.run_batch`, up to
64 runs per arc pass) and the termination-only cover sweep
(:func:`repro.fastpath.bitset_oracle.termination_rounds`, 64 runs per
``uint64`` word).  The double-cover oracle
(:func:`repro.fastpath.oracle_backend.run`) shares neither their
dynamics nor their packing: it predicts every statistic from one
per-source BFS over the implicit cover.  This suite holds the packed
lanes equal to it:

* the numpy lane's raw statistics, element for element, across graph
  families (odd/even cycles, complete bipartite, ER, disconnected), at
  batch sizes around every word width the engine packs, with every
  collection shape and at budget cut-offs;
* ``oracle_backend.cover_levels`` against the explicit tensor product
  of :func:`repro.graphs.cover_distances`, and its eccentricity
  against the termination lane's value for the same run, at batch
  sizes around the lane's word boundary;
* the dispatched paths of plain numpy batches -- serial ``sweep``,
  ``FloodSession.sweep`` and ``parallel_sweep`` pool chunks -- all
  equal to the per-source cover reference;
* ``bitset_oracle.run_batch``, the name perfbench binds, still
  returning the per-source reference.
"""

from __future__ import annotations

import random

import pytest

from repro.api import FloodSession, FloodSpec
from repro.fastpath import IndexedGraph, sweep
from repro.fastpath import bitset_oracle, numpy_backend, oracle_backend
from repro.graphs import (
    Graph,
    complete_bipartite_graph,
    cover_distances,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    petersen_graph,
)
from repro.parallel import parallel_sweep
from tests.conftest import cover_runs

pytestmark = pytest.mark.skipif(
    not numpy_backend.HAS_NUMPY, reason="the word-packed lanes need numpy"
)

# Around every word width the numpy engine packs: uint8 (1, 2, 8),
# uint16 (9), uint64 (33, 63, 64), and batches that spill into a
# second and a third block.
NUMPY_BATCHES = (1, 2, 8, 9, 33, 63, 64, 65, 130)

# Around the termination lane's uint64 word boundary: a single run,
# one bit short of a word, exactly one word, one bit into the second
# word, and a two-word batch whose tail word is mostly empty.
WORD_EDGE_BATCHES = (1, 63, 64, 65, 130)


def families():
    disconnected = Graph.from_edges([(0, 1), (1, 2), (3, 4)])
    return [
        pytest.param(cycle_graph(9), id="odd-cycle-9"),
        pytest.param(cycle_graph(65), id="odd-cycle-65"),
        pytest.param(cycle_graph(8), id="even-cycle-8"),
        pytest.param(cycle_graph(64), id="even-cycle-64"),
        pytest.param(complete_bipartite_graph(3, 4), id="k3-4"),
        pytest.param(petersen_graph(), id="petersen"),
        pytest.param(grid_graph(4, 5), id="grid-4x5"),
        pytest.param(path_graph(7), id="path-7"),
        pytest.param(
            erdos_renyi(60, 0.08, seed=3, connected=True), id="er-60"
        ),
        pytest.param(erdos_renyi(45, 0.1, seed=9), id="er-45-maybe-disc"),
        pytest.param(disconnected, id="disconnected"),
    ]


def seeded_batch(index, batch_size, seed):
    """A deterministic batch of random source-id lists."""
    rng = random.Random(seed)
    id_lists = []
    for _ in range(batch_size):
        size = rng.choice((1, 1, 1, 2, 3))
        id_lists.append(rng.sample(range(index.n), min(size, index.n)))
    return id_lists


def cover_reference(index, id_lists, budget, collect_senders, collect_receives):
    return [
        oracle_backend.run(
            index, ids, budget, collect_senders, collect_receives
        )
        for ids in id_lists
    ]


def assert_runs_equal(actual, expected):
    """Two IndexedRuns agree on every statistic field, bit for bit."""
    assert actual.sources == expected.sources
    assert actual.terminated == expected.terminated
    assert actual.termination_round == expected.termination_round
    assert actual.total_messages == expected.total_messages
    assert actual.round_edge_counts == expected.round_edge_counts
    assert actual.sender_ids == expected.sender_ids
    assert actual.receive_rounds_by_id == expected.receive_rounds_by_id


class TestCoverLevels:
    @pytest.mark.parametrize("graph", families())
    @pytest.mark.parametrize("batch_size", WORD_EDGE_BATCHES)
    def test_levels_match_the_explicit_cover_and_the_lane(
        self, graph, batch_size
    ):
        index = IndexedGraph.of(graph)
        id_lists = seeded_batch(index, batch_size, seed=batch_size)
        lane = bitset_oracle.termination_rounds(index, id_lists)
        assert len(lane) == batch_size
        for ids, rounds in zip(id_lists, lane):
            levels = oracle_backend.cover_levels(index, ids)
            explicit = cover_distances(graph, [index.labels[v] for v in ids])
            assert levels == [
                explicit.get((index.labels[state >> 1], state & 1), -1)
                for state in range(2 * index.n)
            ]
            assert rounds == max(levels)

    def test_all_nodes_batch(self):
        graph = cycle_graph(70)  # n not a multiple of 64: 6-run tail word
        index = IndexedGraph.of(graph)
        id_lists = [[v] for v in range(index.n)]
        budget = 4 * index.n + 8
        assert numpy_backend.run_batch(
            index, id_lists, budget, True, True
        ) == cover_reference(index, id_lists, budget, True, True)
        assert bitset_oracle.termination_rounds(index, id_lists) == [
            max(oracle_backend.cover_levels(index, ids)) for ids in id_lists
        ]


class TestNumpyLaneEqualsTheCover:
    @pytest.mark.parametrize("graph", families())
    @pytest.mark.parametrize("batch_size", NUMPY_BATCHES)
    def test_light_stats_bit_identical(self, graph, batch_size):
        index = IndexedGraph.of(graph)
        id_lists = seeded_batch(index, batch_size, seed=7 * batch_size + 1)
        budget = 4 * index.n + 8
        batch = numpy_backend.run_batch(index, id_lists, budget)
        assert len(batch) == batch_size
        assert batch == cover_reference(index, id_lists, budget, False, False)

    @pytest.mark.parametrize("graph", families())
    def test_heavy_collections_bit_identical(self, graph):
        index = IndexedGraph.of(graph)
        id_lists = seeded_batch(index, 40, seed=40)
        budget = 4 * index.n + 8
        for collect_senders, collect_receives in (
            (True, True), (True, False), (False, True),
        ):
            batch = numpy_backend.run_batch(
                index, id_lists, budget,
                collect_senders=collect_senders,
                collect_receives=collect_receives,
            )
            assert batch == cover_reference(
                index, id_lists, budget, collect_senders, collect_receives
            )

    @pytest.mark.parametrize("graph", families())
    @pytest.mark.parametrize("budget", (1, 3, 10))
    def test_budget_cutoffs_bit_identical(self, graph, budget):
        index = IndexedGraph.of(graph)
        id_lists = seeded_batch(index, 70, seed=budget)
        for collect in (False, True):
            batch = numpy_backend.run_batch(
                index, id_lists, budget,
                collect_senders=collect, collect_receives=collect,
            )
            assert batch == cover_reference(
                index, id_lists, budget, collect, collect
            )


class TestRoutedPaths:
    def test_serial_sweep_bit_identical(self):
        graph = cycle_graph(80)
        source_sets = [[v] for v in graph.nodes()]
        runs = sweep(
            graph, source_sets, backend="numpy",
            collect_senders=True, collect_receives=True,
        )
        for run, reference in zip(
            runs, cover_runs(graph, source_sets, None, True, True)
        ):
            assert run.backend == "numpy"
            assert_runs_equal(run, reference)

    def test_session_sweep_bit_identical(self):
        graph = erdos_renyi(50, 0.1, seed=13, connected=True)
        source_sets = [[v] for v in graph.nodes()]
        specs = [
            FloodSpec(graph=graph, sources=tuple(sources), backend="numpy")
            for sources in source_sets
        ]
        with FloodSession(workers=0) as session:
            results = session.sweep(specs)
        for result, reference in zip(results, cover_runs(graph, source_sets)):
            assert result.terminated == reference.terminated
            assert result.termination_round == reference.termination_round
            assert result.total_messages == reference.total_messages
            assert result.round_edge_counts == reference.round_edge_counts

    def test_pool_chunks_bit_identical(self):
        graph = cycle_graph(48)
        source_sets = [[v] for v in graph.nodes()]
        reference = cover_runs(graph, source_sets, None, False, True)
        for workers in (1, 2):
            for chunksize in (7, 64):
                runs = parallel_sweep(
                    graph,
                    source_sets,
                    backend="numpy",
                    collect_receives=True,
                    workers=workers,
                    chunksize=chunksize,
                )
                for run, expected in zip(runs, reference):
                    assert_runs_equal(run, expected)


class TestPerfbenchBinding:
    def test_run_batch_is_the_per_source_reference(self):
        # No repro caller remains; perfbench's tracer binds the name.
        graph = erdos_renyi(40, 0.12, seed=2, connected=True)
        index = IndexedGraph.of(graph)
        id_lists = seeded_batch(index, 70, seed=5)
        for budget in (3, 200):
            for collect in (False, True):
                assert bitset_oracle.run_batch(
                    index, id_lists, budget, collect, collect
                ) == cover_reference(index, id_lists, budget, collect, collect)
