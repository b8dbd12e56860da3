"""Rounds-aware routing: long floods to the oracle, short ones to the
frontier engines, explicit backends always respected.

Routing must also be *deterministic* -- a pure function of (graph,
budget) -- so the backend recorded on a result never depends on load
or interleaving.
"""

from __future__ import annotations

import asyncio

from repro.api import FloodSpec
from repro.fastpath import (
    IndexedGraph,
    ORACLE_ROUND_THRESHOLD,
    available_backends,
    expected_rounds,
    probe_termination_rounds,
    routed_backend,
    select_backend,
    sweep,
)
from repro.graphs import complete_graph, cycle_graph, erdos_renyi
from repro.service import FloodService
from repro.service.routing import Router


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

    def test_probe_matches_oracle_sweep(self):
        graph = erdos_renyi(40, 0.15, seed=3, connected=True)
        index = IndexedGraph.of(graph)
        rounds = probe_termination_rounds(index, samples=3)
        step = max(1, index.n // 3)
        sample_nodes = [index.labels[i] for i in range(0, index.n, step)][:3]
        reference = sweep(graph, [[v] for v in sample_nodes], backend="oracle")
        assert list(rounds) == [run.termination_round for run in reference]

    def test_probe_deterministic(self):
        index = IndexedGraph.of(erdos_renyi(50, 0.1, seed=9, connected=True))
        assert probe_termination_rounds(index) == probe_termination_rounds(
            index
        )

    def test_expected_rounds_clamps_to_budget(self):
        assert expected_rounds((100, 90)) == 100
        assert expected_rounds((100, 90), budget=10) == 10
        assert expected_rounds((5,), budget=10) == 5
        assert expected_rounds(()) == 0


class TestRoutedBackend:
    def test_long_cycle_routes_to_oracle(self):
        n = 4 * ORACLE_ROUND_THRESHOLD + 1
        index = IndexedGraph.of(cycle_graph(n))
        probe = probe_termination_rounds(index)
        assert routed_backend(index, probe) == "oracle"

    def test_short_dense_graph_routes_to_frontier(self):
        index = IndexedGraph.of(complete_graph(12))
        probe = probe_termination_rounds(index)
        chosen = routed_backend(index, probe)
        assert chosen == select_backend(index, None)
        assert chosen != "oracle"

    def test_tight_budget_reverts_to_frontier(self):
        """A budget below the threshold makes the per-round engines
        cheap again, even on a long-flood family."""
        n = 4 * ORACLE_ROUND_THRESHOLD + 1
        index = IndexedGraph.of(cycle_graph(n))
        probe = probe_termination_rounds(index)
        assert routed_backend(index, probe, budget=2) != "oracle"
        assert routed_backend(index, probe, budget=n) == "oracle"


class TestServiceRouting:
    def test_service_routes_long_floods_to_oracle(self):
        graph = cycle_graph(4 * ORACLE_ROUND_THRESHOLD + 1)
        assert query_backend(graph, [0]) == "oracle"

    def test_service_routes_short_floods_to_frontier(self):
        graph = complete_graph(12)
        backend = query_backend(graph, [0])
        assert backend in available_backends()
        assert backend != "oracle"

    def test_explicit_backend_wins(self):
        graph = cycle_graph(4 * ORACLE_ROUND_THRESHOLD + 1)
        assert query_backend(graph, [0], backend="pure") == "pure"
        graph2 = complete_graph(10)
        assert query_backend(graph2, [0], backend="oracle") == "oracle"

    def test_budget_aware_service_routing(self):
        graph = cycle_graph(4 * ORACLE_ROUND_THRESHOLD + 1)
        assert query_backend(graph, [0], max_rounds=2) != "oracle"

    def test_routed_results_still_match_serial(self):
        """Whatever routing picks, the statistics equal the serial
        sweep with that backend."""
        graph = cycle_graph(101)
        sets = [[v] for v in graph.nodes()[:6]]

        async def run():
            async with FloodService(workers=0) as service:
                return await asyncio.gather(
                    *(service.query_spec(FloodSpec(graph, s)) for s in sets)
                )

        results = asyncio.run(run())
        serial = sweep(graph, sets, backend=results[0].backend)
        for expected, actual in zip(serial, results):
            assert expected.backend == actual.backend
            assert expected.termination_round == actual.termination_round
            assert expected.total_messages == actual.total_messages
            assert expected.round_edge_counts == actual.round_edge_counts

    def test_stats_record_backend_mix(self):
        long_cycle = cycle_graph(4 * ORACLE_ROUND_THRESHOLD + 1)
        dense = complete_graph(12)

        async def run():
            async with FloodService(workers=0) as service:
                await service.query_spec(FloodSpec(long_cycle, [0]))
                await service.query_spec(FloodSpec(dense, [0]))
                return dict(service.stats.backends)

        mix = asyncio.run(run())
        assert mix.get("oracle") == 1
        assert sum(mix.values()) == 2


class TestRouterCache:
    def test_probe_computed_once_per_index(self, monkeypatch):
        import repro.service.routing as routing_module

        calls = []
        original = routing_module.probe_termination_rounds

        def counting(index, *args, **kwargs):
            calls.append(index)
            return original(index, *args, **kwargs)

        monkeypatch.setattr(
            routing_module, "probe_termination_rounds", counting
        )
        router = Router()
        index = IndexedGraph.of(cycle_graph(15))
        budget = 100
        first = router.resolve(index, None, budget)
        second = router.resolve(index, None, budget)
        assert first == second
        assert len(calls) == 1

    def test_explicit_backend_skips_probe(self, monkeypatch):
        import repro.service.routing as routing_module

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("explicit backends must not probe")

        monkeypatch.setattr(routing_module, "probe_termination_rounds", boom)
        router = Router()
        index = IndexedGraph.of(cycle_graph(15))
        assert router.resolve(index, "pure", 100) == "pure"

    def test_forget_drops_cache(self):
        router = Router()
        index = IndexedGraph.of(cycle_graph(15))
        router.resolve(index, None, 100)
        assert router._probes
        router.forget(index)
        assert not router._probes

    def test_probe_survives_index_object_churn(self, monkeypatch):
        """The cache keys by graph, not index identity: a recreated
        IndexedGraph (global index-LRU churn) must neither recompute
        the probe nor leak a second cache entry."""
        import repro.service.routing as routing_module
        from repro.fastpath.indexed import IndexedGraph as IG

        calls = []
        original = routing_module.probe_termination_rounds

        def counting(index, *args, **kwargs):
            calls.append(index)
            return original(index, *args, **kwargs)

        monkeypatch.setattr(
            routing_module, "probe_termination_rounds", counting
        )
        graph = cycle_graph(15)
        router = Router()
        first = router.resolve(IG(graph), None, 100)  # fresh object
        second = router.resolve(IG(graph), None, 100)  # another fresh object
        assert first == second
        assert len(calls) == 1
        assert len(router._probes) == 1

    def test_register_warms_the_probe(self):
        """register() is the blocking warm-up hook: after it, the first
        routed query must find the probe cached (no cover-BFS on the
        event-loop thread)."""
        graph = cycle_graph(21)
        service = FloodService(workers=0)
        service.register(graph)
        assert service._router.peek(IndexedGraph.of(graph)) is not None

    def test_pooled_auto_registration_warms_the_probe_off_loop(self):
        """Auto-registering a cold graph through query() computes the
        probe exactly once, on an executor thread -- not on the event
        loop -- and routing then resolves from the cache."""
        import threading

        graph = cycle_graph(23)
        on_main_thread = []

        async def run():
            async with FloodService(workers=1) as service:
                original = service._router.compute

                def spy(index):
                    on_main_thread.append(
                        threading.current_thread()
                        is threading.main_thread()
                    )
                    return original(index)

                service._router.compute = spy
                return await service.query_spec(FloodSpec(graph, [0]))

        result = asyncio.run(run())
        assert result.termination_round == 23
        assert on_main_thread == [False]

    def test_probe_cache_is_bounded(self):
        from repro.service.routing import MAX_CACHED_PROBES

        router = Router(samples=1)
        for n in range(3, 3 + MAX_CACHED_PROBES + 10):
            router.resolve(IndexedGraph.of(cycle_graph(n)), None, 1)
        assert len(router._probes) == MAX_CACHED_PROBES
