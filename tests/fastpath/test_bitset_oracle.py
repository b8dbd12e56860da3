"""The word-packed bitset oracle vs every other way to run the same flood.

The bitset oracle (:mod:`repro.fastpath.bitset_oracle`) floods a whole
batch of source sets in one cover sweep.  Its contract is *bit
identity*: every per-source statistic must equal the per-source oracle
backend exactly, which the existing matrix already holds bit-for-bit
equal to the pure and numpy frontier engines and the explicit cover.
This suite pins:

* the batched cover-level matrix column-for-column against
  ``oracle_backend.cover_levels``;
* ``run_batch`` element-for-element against ``oracle_backend.run``
  across graph families (odd/even cycles, complete bipartite, ER,
  disconnected), collection shapes and budget cut-offs;
* the word-packing edge cases: batch sizes off the 64-bit word
  boundary, single-run batches, all-nodes batches, and tail words that
  are mostly empty;
* the dispatched paths of explicit oracle batches -- serial
  ``sweep``/``sweep_specs``, ``FloodSession.sweep`` and
  ``parallel_sweep`` pool chunks -- all bit-identical to the per-source
  oracle, plus the eligibility gate (variants, small batches and
  ``backend=None`` batches never enter the bitset lane).
"""

from __future__ import annotations

import random

import pytest

from repro.api import FloodSession, FloodSpec
from repro.fastpath import (
    BITSET_MIN_BATCH,
    IndexedGraph,
    run_spec,
    sweep,
)
from repro.fastpath import bitset_oracle, engine, oracle_backend
from repro.fastpath.numpy_backend import HAS_NUMPY
from repro.fastpath.variants import thinning
from repro.graphs import (
    Graph,
    complete_bipartite_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    petersen_graph,
)
from repro.parallel import parallel_sweep

pytestmark = pytest.mark.skipif(
    not HAS_NUMPY, reason="the bitset oracle needs numpy"
)

# Batch sizes around the uint64 word boundary: single run, one bit
# short of a word, exactly one word, one bit into the second word, and
# a two-word batch whose tail word is mostly empty.
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


def assert_runs_equal(actual, expected):
    """Two IndexedRuns agree on every statistic field, bit for bit."""
    assert actual.backend == expected.backend
    assert actual.sources == expected.sources
    assert actual.terminated == expected.terminated
    assert actual.termination_round == expected.termination_round
    assert actual.total_messages == expected.total_messages
    assert actual.round_edge_counts == expected.round_edge_counts
    assert actual.sender_ids == expected.sender_ids
    assert actual.receive_rounds_by_id == expected.receive_rounds_by_id


class TestCoverLevelsBatch:
    @pytest.mark.parametrize("graph", families())
    @pytest.mark.parametrize("batch_size", WORD_EDGE_BATCHES)
    def test_columns_match_per_source_levels(self, graph, batch_size):
        index = IndexedGraph.of(graph)
        id_lists = seeded_batch(index, batch_size, seed=batch_size)
        dist = bitset_oracle.cover_levels_batch(index, id_lists)
        assert dist.shape == (2 * index.n, batch_size)
        for position, ids in enumerate(id_lists):
            assert (
                dist[:, position].tolist()
                == oracle_backend.cover_levels(index, ids)
            )

    def test_all_nodes_batch(self):
        graph = cycle_graph(70)  # n not a multiple of 64: 6-run tail word
        index = IndexedGraph.of(graph)
        id_lists = [[v] for v in range(index.n)]
        dist = bitset_oracle.cover_levels_batch(index, id_lists)
        for position, ids in enumerate(id_lists):
            assert (
                dist[:, position].tolist()
                == oracle_backend.cover_levels(index, ids)
            )


class TestRunBatchEquivalence:
    @pytest.mark.parametrize("graph", families())
    @pytest.mark.parametrize("batch_size", WORD_EDGE_BATCHES)
    def test_light_stats_bit_identical(self, graph, batch_size):
        index = IndexedGraph.of(graph)
        id_lists = seeded_batch(index, batch_size, seed=7 * batch_size + 1)
        budget = 4 * index.n + 8
        batch = bitset_oracle.run_batch(index, id_lists, budget)
        assert len(batch) == batch_size
        for ids, raw in zip(id_lists, batch):
            assert raw == oracle_backend.run(
                index, ids, budget,
                collect_senders=False, collect_receives=False,
            )

    @pytest.mark.parametrize("graph", families())
    def test_heavy_collections_bit_identical(self, graph):
        index = IndexedGraph.of(graph)
        id_lists = seeded_batch(index, 40, seed=40)
        budget = 4 * index.n + 8
        for collect_senders, collect_receives in (
            (True, True), (True, False), (False, True),
        ):
            batch = bitset_oracle.run_batch(
                index, id_lists, budget,
                collect_senders=collect_senders,
                collect_receives=collect_receives,
            )
            for ids, raw in zip(id_lists, batch):
                assert raw == oracle_backend.run(
                    index, ids, budget,
                    collect_senders=collect_senders,
                    collect_receives=collect_receives,
                )

    @pytest.mark.parametrize("graph", families())
    @pytest.mark.parametrize("budget", (1, 3, 10))
    def test_budget_cutoffs_bit_identical(self, graph, budget):
        index = IndexedGraph.of(graph)
        id_lists = seeded_batch(index, 70, seed=budget)
        for collect in (False, True):
            batch = bitset_oracle.run_batch(
                index, id_lists, budget,
                collect_senders=collect, collect_receives=collect,
            )
            for ids, raw in zip(id_lists, batch):
                assert raw == oracle_backend.run(
                    index, ids, budget,
                    collect_senders=collect, collect_receives=collect,
                )

    def test_blocking_is_invisible(self, monkeypatch):
        # Batches larger than BLOCK_RUNS process in blocks; shrinking
        # the block size must not change a single bit.
        graph = erdos_renyi(40, 0.12, seed=2, connected=True)
        index = IndexedGraph.of(graph)
        id_lists = seeded_batch(index, 150, seed=5)
        whole = bitset_oracle.run_batch(index, id_lists, 200)
        monkeypatch.setattr(bitset_oracle, "BLOCK_RUNS", 32)
        blocked = bitset_oracle.run_batch(index, id_lists, 200)
        assert whole == blocked


class TestRoutedPaths:
    def expected(self, graph, source_sets):
        return [
            run_spec(
                FloodSpec(graph=graph, sources=tuple(sources), backend="oracle")
            )
            for sources in source_sets
        ]

    def test_serial_sweep_bit_identical(self):
        graph = cycle_graph(80)
        source_sets = [[v] for v in graph.nodes()]
        runs = sweep(graph, source_sets, backend="oracle")
        for run, reference in zip(runs, self.expected(graph, source_sets)):
            assert_runs_equal(run, reference)

    def test_session_sweep_bit_identical(self):
        graph = erdos_renyi(50, 0.1, seed=13, connected=True)
        source_sets = [[v] for v in graph.nodes()]
        specs = [
            FloodSpec(graph=graph, sources=tuple(sources), backend="oracle")
            for sources in source_sets
        ]
        with FloodSession(workers=0) as session:
            results = session.sweep(specs)
        for result, reference in zip(
            results, self.expected(graph, source_sets)
        ):
            assert result.terminated == reference.terminated
            assert result.termination_round == reference.termination_round
            assert result.total_messages == reference.total_messages
            assert (
                result.round_edge_counts == reference.round_edge_counts
            )

    def test_pool_chunks_bit_identical(self):
        graph = cycle_graph(48)
        source_sets = [[v] for v in graph.nodes()]
        serial = sweep(graph, source_sets, backend="oracle")
        for workers in (1, 2):
            for chunksize in (7, 64):
                runs = parallel_sweep(
                    graph,
                    source_sets,
                    backend="oracle",
                    workers=workers,
                    chunksize=chunksize,
                )
                for run, reference in zip(runs, serial):
                    assert_runs_equal(run, reference)


class TestEligibilityGate:
    def poisoned(self, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("bitset lane must not be taken")

        monkeypatch.setattr(engine.bitset_oracle, "run_batch", explode)

    def test_small_batches_stay_on_the_per_source_oracle(self, monkeypatch):
        self.poisoned(monkeypatch)
        graph = cycle_graph(40)
        source_sets = [[v] for v in range(BITSET_MIN_BATCH - 1)]
        runs = sweep(graph, source_sets, backend="oracle")
        assert [run.termination_round for run in runs] == [
            run_spec(
                FloodSpec(graph=graph, sources=tuple(sources), backend="oracle")
            ).termination_round
            for sources in source_sets
        ]

    def test_variants_never_take_the_bitset_lane(self, monkeypatch):
        self.poisoned(monkeypatch)
        graph = cycle_graph(24)
        source_sets = [[v] for v in graph.nodes()]
        runs = sweep(graph, source_sets, variant=thinning(1.0, seed=4))
        assert len(runs) == len(source_sets)

    def test_frontier_batches_never_take_the_bitset_lane(self, monkeypatch):
        self.poisoned(monkeypatch)
        graph = cycle_graph(24)
        source_sets = [[v] for v in graph.nodes()]
        runs = sweep(graph, source_sets, backend="pure")
        assert len(runs) == len(source_sets)

    def test_auto_batches_never_take_the_bitset_lane(self, monkeypatch):
        # backend=None resolves to a frontier engine even on a long
        # odd-cycle flood, so only explicit oracle batches reach the lane.
        self.poisoned(monkeypatch)
        graph = cycle_graph(91)
        source_sets = [[v] for v in graph.nodes()]
        runs = sweep(graph, source_sets)
        assert all(run.backend != "oracle" for run in runs)
        assert all(run.termination_round == 91 for run in runs)

    def test_large_oracle_batches_do_take_the_bitset_lane(self, monkeypatch):
        taken = []
        original = bitset_oracle.run_batch

        def spy(*args, **kwargs):
            taken.append(True)
            return original(*args, **kwargs)

        monkeypatch.setattr(engine.bitset_oracle, "run_batch", spy)
        graph = cycle_graph(40)
        sweep(graph, [[v] for v in graph.nodes()], backend="oracle")
        assert taken
