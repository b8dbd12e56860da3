"""Service determinism: every query equals its own serial sweep.

The contract under test: for every worker count, batching window and
interleaving of concurrent callers, the result ``await query(graph, S,
...)`` returns is bit-identical to ``repro.fastpath.sweep(graph, [S],
...)`` -- same dataclass fields, same values.  Batching, sharding and
routing change scheduling, never content.
"""

from __future__ import annotations

import asyncio
import random
import time

import pytest

from repro.api import FloodSpec
from repro.fastpath import sweep, sweep_specs
from repro.graphs import erdos_renyi
from repro.service import FloodService

# workers=0 is the in-process serial mode; 1/2/4 are real pools (on a
# single-core CI box they still exercise true process boundaries).
WORKER_COUNTS = (0, 1, 2, 4)
BATCH_WINDOWS = (0.0, 0.005, 0.05)


@pytest.fixture(scope="module")
def workload():
    """A small ER graph with mixed single- and multi-source requests."""
    graph = erdos_renyi(90, 0.07, seed=23, connected=True)
    nodes = graph.nodes()
    source_sets = [[v] for v in nodes[:24]] + [
        list(nodes[:3]),
        list(nodes[40:44]),
        [nodes[0], nodes[-1]],
    ]
    return graph, source_sets


def assert_run_equals(expected, actual):
    """Field-for-field equality of two IndexedRuns."""
    assert expected.sources == actual.sources
    assert expected.backend == actual.backend
    assert expected.terminated == actual.terminated
    assert expected.termination_round == actual.termination_round
    assert expected.total_messages == actual.total_messages
    assert expected.round_edge_counts == actual.round_edge_counts
    assert expected.sender_ids == actual.sender_ids
    assert expected.receive_rounds_by_id == actual.receive_rounds_by_id


def serial_reference(graph, source_sets, **kwargs):
    return sweep(graph, source_sets, **kwargs)


class TestConcurrentQueries:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("window", BATCH_WINDOWS)
    def test_gathered_queries_match_serial(self, workload, workers, window):
        graph, source_sets = workload
        serial = serial_reference(graph, source_sets, backend="pure")

        async def run():
            async with FloodService(
                workers=workers, batch_window=window
            ) as service:
                return await asyncio.gather(
                    *(
                        service.query_spec(FloodSpec(graph, sources, backend="pure"))
                        for sources in source_sets
                    )
                )

        results = asyncio.run(run())
        for expected, actual in zip(serial, results):
            assert_run_equals(expected, actual)

    def test_staggered_interleavings_match_serial(self, workload):
        """Randomly delayed submissions (seeded) produce mixed batch
        compositions; every composition must yield identical results."""
        graph, source_sets = workload
        serial = serial_reference(graph, source_sets, backend="pure")
        rng = random.Random(7)
        delays = [rng.uniform(0.0, 0.02) for _ in source_sets]

        async def delayed(service, wait, sources):
            await asyncio.sleep(wait)
            return await service.query_spec(FloodSpec(graph, sources, backend="pure"))

        async def run():
            async with FloodService(
                workers=2, batch_window=0.004, max_batch=4
            ) as service:
                return await asyncio.gather(
                    *(
                        delayed(service, wait, sources)
                        for wait, sources in zip(delays, source_sets)
                    )
                )

        results = asyncio.run(run())
        for expected, actual in zip(serial, results):
            assert_run_equals(expected, actual)

    @pytest.mark.parametrize("workers", (0, 2))
    def test_budget_cutoffs_match_serial(self, workload, workers):
        graph, source_sets = workload
        for budget in (1, 2, 4):
            serial = serial_reference(
                graph, source_sets, max_rounds=budget, backend="pure"
            )
            assert any(not run.terminated for run in serial)  # budget bites

            async def run():
                async with FloodService(workers=workers) as service:
                    return await asyncio.gather(
                        *(
                            service.query_spec(
                                FloodSpec(
                                    graph, sources, max_rounds=budget, backend="pure"
                                ),
                            )
                            for sources in source_sets
                        )
                    )

            for expected, actual in zip(serial, asyncio.run(run())):
                assert_run_equals(expected, actual)

    def test_mixed_budgets_in_flight_stay_separated(self, workload):
        """Different budgets may be in flight concurrently; the batch
        key separates them, so each request gets its own budget's
        result."""
        graph, source_sets = workload
        budgets = [1, 2, None] * (len(source_sets) // 3 + 1)
        pairs = list(zip(source_sets, budgets))

        async def run():
            async with FloodService(workers=0, batch_window=0.01) as service:
                return await asyncio.gather(
                    *(
                        service.query_spec(
                            FloodSpec(
                                graph, sources, max_rounds=budget, backend="pure"
                            ),
                        )
                        for sources, budget in pairs
                    )
                )

        results = asyncio.run(run())
        for (sources, budget), actual in zip(pairs, results):
            expected = serial_reference(
                graph, [sources], max_rounds=budget, backend="pure"
            )[0]
            assert_run_equals(expected, actual)

    def test_full_collection_through_service(self, workload):
        graph, source_sets = workload
        serial = serial_reference(
            graph,
            source_sets[:6],
            backend="pure",
            collect_senders=True,
            collect_receives=True,
        )

        async def run():
            async with FloodService(workers=2) as service:
                return await asyncio.gather(
                    *(
                        service.query_spec(
                            FloodSpec(
                                graph,
                                sources,
                                backend="pure",
                                collect_senders=True,
                                collect_receives=True,
                            ),
                        )
                        for sources in source_sets[:6]
                    )
                )

        results = asyncio.run(run())
        for expected, actual in zip(serial, results):
            assert_run_equals(expected, actual)
            assert expected.sender_sets() == actual.sender_sets()
            assert expected.receive_rounds() == actual.receive_rounds()


class TestQueryBatch:
    @pytest.mark.parametrize("workers", (0, 2))
    def test_query_batch_matches_serial(self, workload, workers):
        graph, source_sets = workload
        serial = serial_reference(graph, source_sets, backend="pure")

        async def run():
            async with FloodService(workers=workers) as service:
                return await service.query_batch_specs(
                    [FloodSpec(graph, s, backend="pure") for s in source_sets]
                )

        results = asyncio.run(run())
        assert len(results) == len(serial)
        for expected, actual in zip(serial, results):
            assert_run_equals(expected, actual)

    def test_empty_batch(self):
        async def run():
            async with FloodService(workers=0) as service:
                return await service.query_batch_specs([])

        assert asyncio.run(run()) == []

    def test_concurrent_batches_and_singles(self, workload):
        """Batches and coalesced singles share the pool without
        cross-talk."""
        graph, source_sets = workload
        serial = serial_reference(graph, source_sets, backend="pure")

        async def run():
            async with FloodService(
                workers=2, batch_window=0.005
            ) as service:
                batch_task = asyncio.create_task(
                    service.query_batch_specs(
                        [FloodSpec(graph, s, backend="pure") for s in source_sets[:10]]
                    )
                )
                singles = await asyncio.gather(
                    *(
                        service.query_spec(FloodSpec(graph, sources, backend="pure"))
                        for sources in source_sets[10:]
                    )
                )
                return await batch_task, singles

        batch_runs, single_runs = asyncio.run(run())
        for expected, actual in zip(serial[:10], batch_runs):
            assert_run_equals(expected, actual)
        for expected, actual in zip(serial[10:], single_runs):
            assert_run_equals(expected, actual)


class TestRegistrationCaching:
    def test_registered_index_is_reused(self, workload):
        graph, source_sets = workload

        async def run():
            async with FloodService(workers=0) as service:
                index = service.register(graph)
                again = service.register(graph)
                run = await service.query_spec(FloodSpec(graph, source_sets[0]))
                return index, again, run

        index, again, result = asyncio.run(run())
        assert index is again
        assert result.index is index

    def test_lru_eviction_keeps_serving(self):
        from repro.graphs import cycle_graph

        graphs = [cycle_graph(n) for n in (9, 11, 13, 15)]

        async def run():
            async with FloodService(workers=0, max_graphs=2) as service:
                results = []
                for graph in graphs + graphs:  # revisit evicted entries
                    run = await service.query_spec(
                        FloodSpec(graph, [0], backend="pure")
                    )
                    results.append(run.termination_round)
                return results

        rounds = asyncio.run(run())
        assert rounds == [9, 11, 13, 15, 9, 11, 13, 15]


class TestAdaptiveFlush:
    def test_lone_query_on_idle_service_skips_the_window(self, workload):
        """An idle service flushes on the next tick: a 5 s window never
        delays a lone query, and the result is unchanged."""
        graph, source_sets = workload
        spec = FloodSpec(graph, source_sets[0])

        async def run():
            async with FloodService(workers=0, batch_window=5.0) as service:
                started = time.perf_counter()
                result = await service.query_spec(spec)
                return result, time.perf_counter() - started

        result, elapsed = asyncio.run(run())
        assert elapsed < 1.0
        assert_run_equals(sweep_specs([spec])[0], result)
