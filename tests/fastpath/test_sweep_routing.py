"""Probe-aware backend routing for bare sweeps (the ROADMAP leftover).

``sweep(backend=None)`` now consults the double-cover rounds probe the
way the service router always has: unambiguously round-heavy
topologies go to the O(n + m) oracle, short floods keep the frontier
auto-selection, an explicit backend always wins, and ``probe=False``
opts out.  Results are bit-identical either way -- only the backend
label (and the cost) moves.
"""

from __future__ import annotations

import pytest

from repro.fastpath import (
    ORACLE_ROUND_THRESHOLD,
    IndexedGraph,
    routed_sweep_backend,
    select_backend,
    sweep,
)
from repro.fastpath.engine import _resolve_budget
from repro.graphs import complete_graph, cycle_graph, erdos_renyi
from repro.parallel import parallel_sweep


class TestRoutedSweepBackend:
    def test_long_floods_route_to_oracle(self):
        graph = cycle_graph(2 * ORACLE_ROUND_THRESHOLD + 1)
        runs = sweep(graph, [[0], [5]])
        assert all(run.backend == "oracle" for run in runs)

    def test_short_floods_keep_frontier_selection(self):
        graph = complete_graph(8)  # 3 rounds, far below the threshold
        index = IndexedGraph.of(graph)
        runs = sweep(graph, [[0]])
        assert runs[0].backend == select_backend(index, None)

    def test_opt_out_restores_plain_auto_selection(self):
        graph = cycle_graph(2 * ORACLE_ROUND_THRESHOLD + 1)
        index = IndexedGraph.of(graph)
        runs = sweep(graph, [[0]], probe=False)
        assert runs[0].backend == select_backend(index, None)

    def test_explicit_backend_always_wins(self):
        graph = cycle_graph(2 * ORACLE_ROUND_THRESHOLD + 1)
        runs = sweep(graph, [[0]], backend="pure")
        assert runs[0].backend == "pure"

    def test_tight_budget_defeats_routing(self):
        # A budget caps executed rounds, so the frontier engines stay
        # cheap even on long-flood families -- routing must clamp.
        graph = cycle_graph(2 * ORACLE_ROUND_THRESHOLD + 1)
        index = IndexedGraph.of(graph)
        runs = sweep(graph, [[0]], max_rounds=4)
        assert runs[0].backend == select_backend(index, None)
        assert not runs[0].terminated

    def test_routed_results_identical_to_frontier(self):
        graph = cycle_graph(2 * ORACLE_ROUND_THRESHOLD + 1)
        routed = sweep(
            graph, [[0], [3]], collect_senders=True, collect_receives=True
        )
        frontier = sweep(
            graph,
            [[0], [3]],
            probe=False,
            collect_senders=True,
            collect_receives=True,
        )
        for left, right in zip(routed, frontier):
            assert left.backend != right.backend  # the routing actually bit
            assert left.termination_round == right.termination_round
            assert left.total_messages == right.total_messages
            assert left.round_edge_counts == right.round_edge_counts
            assert left.sender_sets() == right.sender_sets()
            assert left.receive_rounds() == right.receive_rounds()

    def test_parallel_sweep_routes_identically(self):
        graph = cycle_graph(2 * ORACLE_ROUND_THRESHOLD + 1)
        serial = sweep(graph, [[v] for v in range(8)])
        sharded = parallel_sweep(graph, [[v] for v in range(8)], workers=2)
        for left, right in zip(serial, sharded):
            assert left.backend == right.backend == "oracle"
            assert left.termination_round == right.termination_round
            assert left.total_messages == right.total_messages

    def test_warm_pool_probes_once(self, monkeypatch, fresh_indexes):
        # A warm pool's index never changes; the probe memoised on it
        # must be paid at most once per pool, not once per batch.
        import repro.fastpath.probe as probe_module
        from repro.api import FloodSpec
        from repro.parallel import SweepPool

        graph = cycle_graph(2 * ORACLE_ROUND_THRESHOLD + 1)
        calls = []
        original = probe_module.probe_termination_rounds

        def counting(index, *args, **kwargs):
            calls.append(1)
            return original(index, *args, **kwargs)

        monkeypatch.setattr(
            probe_module, "probe_termination_rounds", counting
        )
        with SweepPool(graph, workers=1) as pool:
            first = pool.sweep_specs([FloodSpec(graph, (0,))])
            second = pool.sweep_specs([FloodSpec(graph, (3,))])
        assert [run.backend for run in first + second] == ["oracle", "oracle"]
        assert len(calls) == 1

    @pytest.mark.parametrize("probe", [True, False])
    def test_helper_matches_sweep_choice(self, probe):
        for graph in (cycle_graph(80), erdos_renyi(50, 0.2, seed=1)):
            index = IndexedGraph.of(graph)
            budget = _resolve_budget(graph, None)
            expected = routed_sweep_backend(index, None, budget, probe)
            runs = sweep(graph, [[graph.nodes()[0]]], probe=probe)
            assert runs[0].backend == expected
