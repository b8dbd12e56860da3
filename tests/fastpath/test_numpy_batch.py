"""The word-packed numpy engine against the pure engine, run for run.

:func:`repro.fastpath.numpy_backend.run_batch` floods up to 64 source
sets per arc pass, one bit of a word per run.  Its contract is bit
identity: every run's raw statistics tuple equals ``pure_backend.run``
of the same ids, whatever else shares its word.  This suite pins:

* batch sizes around every word width (1, 2, 8, 9, 33, 63, 64, 65,
  130), with and without sender and receive collection;
* position independence: a run alone, at bit 0, at bit 63 and across
  pool chunk sizes 1, 7 and 64 gives the same tuple;
* multi-source and duplicate-id source sets;
* budget cut-offs at T - 1, T and T + 1, with T from the closed forms
  (odd cycles n rounds, even cycles n / 2, bipartite graphs e(S));
* the graphs ``reduceat`` can misread: a zero-arc graph, and isolated
  nodes in the middle and at the last id;
* emitted types: every value is a Python ``int``/``bool`` (the cache
  codec rejects numpy scalars), so results survive a
  :class:`~repro.cache.ResultCache` round trip.
"""

from __future__ import annotations

import random

import pytest

from repro.api import FloodSpec
from repro.cache.keys import decode_run, encode_run, result_cache_key
from repro.cache.lru import ResultCache
from repro.core import multi_source_bounds
from repro.fastpath import IndexedGraph, run_spec, sweep_specs
from repro.fastpath import numpy_backend, pure_backend
from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
)
from repro.parallel import SweepPool

pytestmark = pytest.mark.skipif(
    not numpy_backend.HAS_NUMPY, reason="the numpy engine needs numpy"
)

# Around every word width: uint8 (1, 2, 8), uint16 (9), uint64 (33, 63,
# 64), and batches that spill into a second and a third block.
BATCH_SIZES = (1, 2, 8, 9, 33, 63, 64, 65, 130)

COLLECTIONS = (
    pytest.param(False, False, id="light"),
    pytest.param(True, False, id="senders"),
    pytest.param(False, True, id="receives"),
    pytest.param(True, True, id="both"),
)


def isolated_tail_graph():
    """Isolated nodes in the middle and at the last id (5 and 7)."""
    adjacency = {0: [1, 2], 1: [0, 2], 2: [0, 1, 3], 3: [2, 4], 4: [3, 6]}
    adjacency.update({5: [], 6: [4], 7: []})
    return Graph(adjacency)


def families():
    return [
        pytest.param(cycle_graph(9), id="odd-cycle-9"),
        pytest.param(cycle_graph(10), id="even-cycle-10"),
        pytest.param(grid_graph(4, 5), id="grid-4x5"),
        pytest.param(complete_graph(7), id="k7"),
        pytest.param(
            erdos_renyi(60, 0.08, seed=3, connected=True), id="er-60"
        ),
        pytest.param(Graph({v: [] for v in range(4)}), id="zero-arcs"),
        pytest.param(isolated_tail_graph(), id="isolated-tail"),
    ]


def seeded_batch(index, batch_size, seed):
    """Random source-id lists of one to three sources each."""
    rng = random.Random(seed)
    return [
        rng.sample(range(index.n), min(rng.choice((1, 1, 2, 3)), index.n))
        for _ in range(batch_size)
    ]


def pure_runs(index, id_lists, budget, collect_senders, collect_receives):
    return [
        pure_backend.run(index, ids, budget, collect_senders, collect_receives)
        for ids in id_lists
    ]


def assert_plain_python(raw):
    """Every emitted value is a Python int/bool, never a numpy scalar."""
    terminated, round_counts, total, sender_ids, receives = raw
    assert type(terminated) is bool
    assert type(total) is int
    assert all(type(count) is int for count in round_counts)
    for collected in (sender_ids, receives):
        if collected is not None:
            assert type(collected) is list
            for inner in collected:
                assert type(inner) is list
                assert all(type(value) is int for value in inner)


class TestBatchEquivalence:
    @pytest.mark.parametrize("graph", families())
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_every_run_equals_pure(self, graph, batch_size):
        index = IndexedGraph.of(graph)
        id_lists = seeded_batch(index, batch_size, seed=batch_size)
        budget = 4 * index.n + 8
        got = numpy_backend.run_batch(index, id_lists, budget)
        assert got == pure_runs(index, id_lists, budget, False, False)

    @pytest.mark.parametrize("graph", families())
    @pytest.mark.parametrize("collect_senders, collect_receives", COLLECTIONS)
    @pytest.mark.parametrize("batch_size", (1, 9, 65))
    def test_collections_equal_pure(
        self, graph, collect_senders, collect_receives, batch_size
    ):
        index = IndexedGraph.of(graph)
        id_lists = seeded_batch(index, batch_size, seed=3 * batch_size)
        budget = 4 * index.n + 8
        got = numpy_backend.run_batch(
            index, id_lists, budget, collect_senders, collect_receives
        )
        assert got == pure_runs(
            index, id_lists, budget, collect_senders, collect_receives
        )

    def test_empty_batch(self):
        index = IndexedGraph.of(cycle_graph(9))
        assert numpy_backend.run_batch(index, [], 10) == []


class TestPositionIndependence:
    GRAPH = erdos_renyi(80, 0.07, seed=11, connected=True)

    def test_alone_at_bit_0_and_at_bit_63(self):
        index = IndexedGraph.of(self.GRAPH)
        probe = [5, 40]
        filler = seeded_batch(index, 63, seed=1)
        budget = 4 * index.n + 8
        alone = numpy_backend.run_batch(index, [probe], budget, True, True)[0]
        first = numpy_backend.run_batch(
            index, [probe] + filler, budget, True, True
        )[0]
        last = numpy_backend.run_batch(
            index, filler + [probe], budget, True, True
        )[63]
        assert alone == first == last
        assert alone == pure_backend.run(index, probe, budget)

    def test_pool_chunk_sizes(self):
        index = IndexedGraph.of(self.GRAPH)
        id_lists = seeded_batch(index, 130, seed=2)
        specs = [
            FloodSpec(
                graph=self.GRAPH,
                sources=tuple(index.labels[v] for v in ids),
                backend="numpy",
            )
            for ids in id_lists
        ]
        serial = sweep_specs(specs)
        expected = pure_runs(index, id_lists, specs[0].max_rounds, False, False)
        with SweepPool(self.GRAPH, workers=2) as pool:
            for chunksize in (1, 7, 64):
                pooled = pool.sweep_specs(specs, chunksize=chunksize)
                for run, serial_run, raw in zip(pooled, serial, expected):
                    assert run.backend == serial_run.backend == "numpy"
                    assert run.round_edge_counts == serial_run.round_edge_counts
                    assert (
                        run.terminated,
                        run.round_edge_counts,
                        run.total_messages,
                    ) == raw[:3]


class TestSourceSets:
    def test_multi_source_sets(self):
        graph = grid_graph(5, 6)
        index = IndexedGraph.of(graph)
        id_lists = [list(range(k, index.n, 7)) for k in range(7)]
        got = numpy_backend.run_batch(index, id_lists, 200, True, True)
        assert got == pure_runs(index, id_lists, 200, True, True)

    def test_duplicate_ids_flood_once(self):
        """A repeated id seeds its node once, as the deduped set does."""
        index = IndexedGraph.of(cycle_graph(11))
        id_lists = [[3, 3], [0, 4, 0, 4], [7]]
        got = numpy_backend.run_batch(index, id_lists, 50, True, True)
        deduped = [list(dict.fromkeys(ids)) for ids in id_lists]
        assert got == pure_runs(index, deduped, 50, True, True)

    def test_duplicate_source_sets_in_one_batch(self):
        index = IndexedGraph.of(complete_graph(6))
        id_lists = [[1]] * 40 + [[2, 4]] * 30
        got = numpy_backend.run_batch(index, id_lists, 20)
        assert got == pure_runs(index, id_lists, 20, False, False)

    def test_duplicate_labels_through_a_spec(self):
        graph = cycle_graph(9)
        spec = FloodSpec(graph=graph, sources=(2, 2, 6), backend="numpy")
        fresh = run_spec(spec)
        reference = run_spec(spec.replace(backend="pure"))
        assert fresh.round_edge_counts == reference.round_edge_counts
        assert fresh.sources == reference.sources


def closed_form_cases():
    """``(graph, source ids, T)`` with T from a closed form."""
    cases = []
    for n in (9, 21):
        cases.append(pytest.param(cycle_graph(n), [0], n, id=f"odd-cycle-{n}"))
    for n in (10, 32):
        cases.append(
            pytest.param(cycle_graph(n), [0], n // 2, id=f"even-cycle-{n}")
        )
    grid = grid_graph(4, 6)
    index = IndexedGraph.of(grid)
    for ids in ([0], [0, 23], [5, 14]):
        sources = [index.labels[v] for v in ids]
        bounds = multi_source_bounds(grid, sources)
        assert bounds.bipartite
        cases.append(
            pytest.param(grid, ids, bounds.exact, id=f"grid-4x6-{ids}")
        )
    return cases


class TestBudgetCutoffs:
    @pytest.mark.parametrize("graph, ids, rounds", closed_form_cases())
    @pytest.mark.parametrize("offset", (-1, 0, 1))
    @pytest.mark.parametrize("batch_size", (1, 9, 64))
    def test_budget_around_termination(
        self, graph, ids, rounds, offset, batch_size
    ):
        index = IndexedGraph.of(graph)
        budget = rounds + offset
        # The closed-form run sits at the last bit, beside runs of
        # other lengths, so a cut-off must act per run.
        id_lists = seeded_batch(index, batch_size - 1, seed=offset) + [ids]
        got = numpy_backend.run_batch(index, id_lists, budget, True, True)
        assert got == pure_runs(index, id_lists, budget, True, True)
        terminated, round_counts = got[-1][:2]
        assert terminated is (offset >= 0)
        assert len(round_counts) == min(rounds, budget)


class TestEmittedTypes:
    @pytest.mark.parametrize("graph", families())
    @pytest.mark.parametrize("batch_size", (1, 9, 64))
    @pytest.mark.parametrize("collect_senders, collect_receives", COLLECTIONS)
    def test_plain_python_values(
        self, graph, batch_size, collect_senders, collect_receives
    ):
        index = IndexedGraph.of(graph)
        id_lists = seeded_batch(index, batch_size, seed=5)
        for budget in (2, 4 * index.n + 8):
            for raw in numpy_backend.run_batch(
                index, id_lists, budget, collect_senders, collect_receives
            ):
                assert_plain_python(raw)

    @pytest.mark.parametrize("sources", ((0,), (0, 17)))
    @pytest.mark.parametrize("collect", (False, True))
    def test_cache_round_trip(self, sources, collect):
        graph = erdos_renyi(40, 0.15, seed=4, connected=True)
        spec = FloodSpec(
            graph=graph,
            sources=sources,
            backend="numpy",
            collect_senders=collect,
            collect_receives=collect,
        )
        run = run_spec(spec)
        cache = ResultCache()
        key = result_cache_key(spec, run.backend)
        cache.put(key, encode_run(run))
        decoded = decode_run(cache.get(key), spec)
        assert decoded is not None, "the codec rejected a fresh numpy result"
        assert decoded.terminated == run.terminated
        assert decoded.round_edge_counts == run.round_edge_counts
        assert decoded.total_messages == run.total_messages
        assert decoded.sender_ids == run.sender_ids
        assert decoded.receive_rounds_by_id == run.receive_rounds_by_id
