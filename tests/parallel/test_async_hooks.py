"""The pool's async submission hook: futures, not blocking calls.

``SweepPool.submit_batch`` is the bridge the service layer stands on:
same determinism as the blocking sweep, delivered through a
:class:`concurrent.futures.Future` completed off-thread.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Future

import pytest

from repro.api import BatchKey, FloodSpec
from repro.errors import ConfigurationError
from repro.fastpath import IndexedGraph, resolve_batch, select_backend, sweep
from repro.graphs import cycle_graph, erdos_renyi
from repro.parallel import SweepPool, serial_batch_ids
from repro.sync.engine import default_round_budget


def assert_runs_identical(expected, actual):
    """Field-for-field equality of two IndexedRun lists."""
    assert len(expected) == len(actual)
    for left, right in zip(expected, actual):
        assert left.sources == right.sources
        assert left.backend == right.backend
        assert left.terminated == right.terminated
        assert left.termination_round == right.termination_round
        assert left.total_messages == right.total_messages
        assert left.round_edge_counts == right.round_edge_counts
        assert left.sender_ids == right.sender_ids
        assert left.receive_rounds_by_id == right.receive_rounds_by_id


@pytest.fixture(scope="module")
def workload():
    graph = erdos_renyi(80, 0.08, seed=17, connected=True)
    return graph, [[v] for v in graph.nodes()[:12]]


def submit(pool, source_sets, **fields):
    """Resolve a spec batch on the pool's index, then submit it."""
    specs = [FloodSpec(pool.graph, tuple(s), **fields) for s in source_sets]
    key, id_lists, run_keys = resolve_batch(specs, pool.index)
    return pool.submit_batch(id_lists, key, run_keys=run_keys)


class TestSubmitBatch:
    def test_future_resolves_to_serial_result(self, workload):
        graph, source_sets = workload
        serial = sweep(graph, source_sets)
        with SweepPool(graph, workers=2) as pool:
            future = submit(pool, source_sets)
            assert isinstance(future, Future)
            assert_runs_identical(serial, future.result(timeout=60))

    def test_many_outstanding_futures(self, workload):
        graph, source_sets = workload
        serial = sweep(graph, source_sets)
        with SweepPool(graph, workers=2) as pool:
            futures = [submit(pool, source_sets) for _ in range(4)]
            for future in futures:
                assert_runs_identical(serial, future.result(timeout=60))

    def test_validation_raises_synchronously(self, workload):
        graph, _ = workload
        key = BatchKey(10, "pure", False, False)
        with SweepPool(graph, workers=1) as pool:
            with pytest.raises(ConfigurationError):
                pool.submit_batch([[0]], key, chunksize=0)
            with pytest.raises(ConfigurationError):
                pool.submit_batch([[0]], key, run_keys=[1, 2])

    def test_empty_batch_resolves_immediately(self, workload):
        graph, _ = workload
        key = BatchKey(10, "pure", False, False)
        with SweepPool(graph, workers=1) as pool:
            assert pool.submit_batch([], key).result(timeout=5) == []

    def test_bridges_into_asyncio(self, workload):
        graph, source_sets = workload
        serial = sweep(graph, source_sets, backend="oracle")

        async def main(pool):
            future = submit(pool, source_sets, backend="oracle")
            return await asyncio.wrap_future(future)

        with SweepPool(graph, workers=2) as pool:
            runs = asyncio.run(main(pool))
        assert_runs_identical(serial, runs)


class TestSerialBatchIds:
    def test_matches_blocking_sweep(self, workload):
        graph, source_sets = workload
        index = IndexedGraph.of(graph)
        id_lists = [index.resolve_sources(s) for s in source_sets]
        budget = default_round_budget(graph)
        backend = select_backend(index, None)
        key = BatchKey(budget, backend, False, False)
        runs = serial_batch_ids(index, id_lists, key)
        assert_runs_identical(sweep(graph, source_sets), runs)

    def test_cycle_statistics(self):
        graph = cycle_graph(9)
        index = IndexedGraph.of(graph)
        key = BatchKey(100, "pure", False, False)
        runs = serial_batch_ids(index, [[0], [4]], key)
        assert [run.termination_round for run in runs] == [9, 9]
