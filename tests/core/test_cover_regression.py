"""Batch tiers against the double-cover reference, output for output.

``all_pairs_termination``, the receipt census and pooled sweeps each
run many floods in one batch, on whichever lane the batch routes to.
This suite pins their outputs to per-source references that share
none of that routing:

* ``all_pairs_termination`` equals one per-source cover run per pair
  (:func:`tests.conftest.cover_runs`), pair for pair, round for round;
* ``receipt_census`` / ``receipt_census_batch`` equal the explicit-cover
  ``predict()`` classification node for node;
* pool determinism: the same batch through workers 1/2/4 at several
  chunk sizes is bit-identical to the serial sweep and to the cover
  reference (word-aligned and word-straddling chunks included).
"""

from __future__ import annotations

import pytest

from repro.core import (
    all_pairs_termination,
    receipt_census,
    receipt_census_batch,
)
from repro.core.oracle import predict
from repro.graphs import (
    Graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    petersen_graph,
)
from repro.parallel import parallel_sweep
from tests.conftest import cover_runs


def census_graphs():
    return [
        pytest.param(path_graph(5), [0], id="path-5"),
        pytest.param(cycle_graph(5), [0], id="odd-cycle-5"),
        pytest.param(cycle_graph(6), [0, 3], id="even-cycle-pair"),
        pytest.param(cycle_graph(6), [0, 1], id="even-cycle-adjacent"),
        pytest.param(petersen_graph(), [0], id="petersen"),
        pytest.param(
            Graph.from_edges([(0, 1), (1, 2), (3, 4)]), [0, 3], id="disc"
        ),
        pytest.param(
            erdos_renyi(30, 0.12, seed=4, connected=True), [0, 7, 13], id="er"
        ),
    ]


class TestAllPairsRegression:
    @pytest.mark.parametrize(
        "graph",
        [
            pytest.param(cycle_graph(13), id="odd-cycle-13"),
            pytest.param(grid_graph(3, 4), id="grid-3x4"),
            pytest.param(
                erdos_renyi(14, 0.25, seed=6, connected=True), id="er-14"
            ),
        ],
    )
    def test_matches_per_pair_cover_runs(self, graph):
        result = all_pairs_termination(graph)
        nodes = graph.nodes()
        expected_pairs = [
            (nodes[i], nodes[j])
            for i in range(len(nodes))
            for j in range(i + 1, len(nodes))
        ]
        assert [pair for pair, _ in result] == expected_pairs
        assert [rounds for _, rounds in result] == [
            run.termination_round for run in cover_runs(graph, expected_pairs)
        ]

    def test_pair_limit_is_a_prefix(self):
        graph = cycle_graph(11)
        full = all_pairs_termination(graph)
        capped = all_pairs_termination(graph, pair_limit=9)
        assert capped == full[:9]


class TestCensusRegression:
    @pytest.mark.parametrize("graph,sources", census_graphs())
    def test_census_matches_explicit_cover_predict(self, graph, sources):
        census = receipt_census(graph, sources)
        prediction = predict(graph, sources)
        expected = {0: [], 1: [], 2: []}
        for node in graph.nodes():
            expected[len(prediction.receive_rounds[node])].append(node)
        assert census.never == tuple(expected[0])
        assert census.once == tuple(expected[1])
        assert census.twice == tuple(expected[2])

    def test_batch_census_equals_per_call_census(self):
        graph = erdos_renyi(40, 0.1, seed=17, connected=True)
        source_sets = [[v] for v in graph.nodes()]
        source_sets.extend([a, b] for a, b in zip(graph.nodes(), graph.nodes()[1:]))
        batched = receipt_census_batch(graph, source_sets)
        assert batched == [
            receipt_census(graph, sources) for sources in source_sets
        ]


class TestPoolDeterminism:
    @pytest.mark.parametrize("workers", (1, 2, 4))
    @pytest.mark.parametrize("chunksize", (1, 7, 64))
    def test_batches_identical_across_shardings(self, workers, chunksize):
        graph = cycle_graph(40)
        source_sets = [[v] for v in graph.nodes()]
        serial = parallel_sweep(graph, source_sets, workers=None)
        sharded = parallel_sweep(
            graph, source_sets, workers=workers, chunksize=chunksize
        )
        assert len(sharded) == len(serial)
        for run, reference, cover in zip(
            sharded, serial, cover_runs(graph, source_sets)
        ):
            assert run.backend == reference.backend
            for expected in (reference, cover):
                assert run.terminated == expected.terminated
                assert run.termination_round == expected.termination_round
                assert run.total_messages == expected.total_messages
                assert run.round_edge_counts == expected.round_edge_counts

    @pytest.mark.parametrize("workers", (1, 2))
    def test_collected_batches_identical_across_shardings(self, workers):
        graph = petersen_graph()
        source_sets = [[v] for v in graph.nodes()] * 4
        serial = parallel_sweep(
            graph, source_sets, collect_receives=True, workers=None
        )
        sharded = parallel_sweep(
            graph,
            source_sets,
            collect_receives=True,
            workers=workers,
            chunksize=13,
        )
        cover = cover_runs(graph, source_sets, None, False, True)
        for run, reference, expected in zip(sharded, serial, cover):
            assert run.receive_rounds_by_id == reference.receive_rounds_by_id
            assert run.receive_rounds_by_id == expected.receive_rounds_by_id
            assert run.round_edge_counts == reference.round_edge_counts
            assert run.round_edge_counts == expected.round_edge_counts
