"""Service backend resolution: the one rule, explicit backends respected.

The service resolves every request with
``fastpath.engine.resolve_backend``: ``backend=None`` auto-selects a
frontier engine (long floods included), explicit names win, and the
choice is *deterministic* -- a pure function of the graph and the
request -- so the backend recorded on a result never depends on load
or interleaving.  The double-cover rounds probe survives only as a
function (perfbench still binds it); no tier calls it.
"""

from __future__ import annotations

import asyncio
from collections import Counter

from repro.api import FloodSpec
from repro.fastpath import (
    IndexedGraph,
    available_backends,
    select_backend,
    sweep,
)
from repro.fastpath.numpy_backend import HAS_NUMPY
from repro.fastpath.probe import probe_termination_rounds, routed_backend
from repro.graphs import complete_graph, cycle_graph, erdos_renyi
from repro.service import FloodService
from repro.service.routing import Router
from tests.conftest import cover_runs

LONG = cycle_graph(129)  # odd: floods run 129 rounds
PINNED = "numpy" if HAS_NUMPY else "pure"
"""A pinned backend; numpy differs from the auto pick on LONG."""


def query_backend(graph, sources, **kwargs):
    async def run():
        async with FloodService(workers=0) as service:
            result = await service.query_spec(FloodSpec(graph, sources, **kwargs))
            return result.backend

    return asyncio.run(run())


class TestProbe:
    def test_probe_is_exact_on_cycles(self):
        # A flood on C_n (n odd) runs exactly n rounds from any source.
        index = IndexedGraph.of(cycle_graph(33))
        rounds = probe_termination_rounds(index)
        assert rounds
        assert all(value == 33 for value in rounds)

    def test_probe_matches_the_cover_reference(self):
        graph = erdos_renyi(40, 0.15, seed=3, connected=True)
        index = IndexedGraph.of(graph)
        rounds = probe_termination_rounds(index, samples=3)
        step = max(1, index.n // 3)
        sample_nodes = [index.labels[i] for i in range(0, index.n, step)][:3]
        reference = cover_runs(graph, [[v] for v in sample_nodes])
        assert list(rounds) == [run.termination_round for run in reference]

    def test_probe_deterministic(self):
        index = IndexedGraph.of(erdos_renyi(50, 0.1, seed=9, connected=True))
        assert probe_termination_rounds(index) == probe_termination_rounds(
            index
        )

    def test_routed_backend_delegates_to_select_backend(self):
        for graph in (LONG, complete_graph(12)):
            index = IndexedGraph.of(graph)
            assert routed_backend(index) == select_backend(index, None)


class TestServiceRouting:
    def test_service_keeps_long_floods_on_the_frontier_rule(self):
        expected = select_backend(IndexedGraph.of(LONG), None)
        assert query_backend(LONG, [0]) == expected

    def test_service_routes_short_floods_to_frontier(self):
        graph = complete_graph(12)
        backend = query_backend(graph, [0])
        assert backend in available_backends()

    def test_explicit_backend_wins(self):
        assert query_backend(LONG, [0], backend="pure") == "pure"
        assert query_backend(LONG, [0], backend=PINNED) == PINNED

    def test_budget_aware_service_routing(self):
        expected = select_backend(IndexedGraph.of(LONG), None)
        assert query_backend(LONG, [0], max_rounds=2) == expected

    def test_routed_results_still_match_serial(self):
        """Whatever resolution picks, the statistics equal the serial
        sweep with that backend and the double-cover reference's."""
        graph = cycle_graph(101)
        sets = [[v] for v in graph.nodes()[:6]]

        async def run():
            async with FloodService(workers=0) as service:
                return await asyncio.gather(
                    *(service.query_spec(FloodSpec(graph, s)) for s in sets)
                )

        results = asyncio.run(run())
        serial = sweep(graph, sets, backend=results[0].backend)
        oracle = cover_runs(graph, sets)
        for expected, predicted, actual in zip(serial, oracle, results):
            assert expected.backend == actual.backend
            assert expected.termination_round == actual.termination_round
            assert expected.total_messages == actual.total_messages
            assert expected.round_edge_counts == actual.round_edge_counts
            assert predicted.round_edge_counts == actual.round_edge_counts

    def test_stats_record_backend_mix(self):
        dense = complete_graph(12)

        async def run():
            async with FloodService(workers=0) as service:
                await service.query_spec(FloodSpec(LONG, [0]))
                await service.query_spec(FloodSpec(LONG, [0], backend=PINNED))
                await service.query_spec(FloodSpec(dense, [0]))
                return dict(service.stats.backends)

        mix = asyncio.run(run())
        expected = Counter(
            [
                select_backend(IndexedGraph.of(LONG), None),
                PINNED,
                select_backend(IndexedGraph.of(dense), None),
            ]
        )
        assert mix == dict(expected)


class TestNoProbe:
    def test_router_resolves_like_the_engine(self):
        router = Router()
        index = IndexedGraph.of(LONG)
        assert router.resolve(index, None) == select_backend(index, None)
        assert router.resolve(index, "pure") == "pure"

    def test_service_never_probes(self, monkeypatch):
        """register(), the pooled warm-up and every query resolve
        without a cover-BFS pass."""
        import repro.fastpath.probe as probe_module

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("backend resolution must not probe")

        monkeypatch.setattr(probe_module, "probe_termination_rounds", boom)
        serial = FloodService(workers=0)
        serial.register(LONG)

        async def run():
            async with serial:
                first = await serial.query_spec(FloodSpec(LONG, [0]))
            async with FloodService(workers=1) as pooled:
                second = await pooled.query_spec(FloodSpec(cycle_graph(23), [0]))
            return first, second

        first, second = asyncio.run(run())
        assert first.termination_round == 129
        assert second.termination_round == 23
