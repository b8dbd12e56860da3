"""Backend auto-selection for bare sweeps.

``sweep(backend=None)`` resolves through ``select_backend`` like every
other tier: long floods stay on the frontier engine it picks (the pure
engine sends at most one message per cover edge, so its total work on
a long flood is O(n + m + rounds), a cover BFS's order with smaller
constants), an explicit backend always wins, and the budget never
changes the choice.  Results equal the double-cover oracle's bit for
bit -- only the backend label differs.
"""

from __future__ import annotations

from repro.fastpath import IndexedGraph, select_backend, sweep
from repro.fastpath.numpy_backend import HAS_NUMPY
from repro.graphs import complete_graph, cycle_graph
from repro.parallel import parallel_sweep
from tests.conftest import cover_runs

LONG = cycle_graph(65)  # odd: every single-source flood runs 65 rounds


class TestSweepAutoSelection:
    def test_long_floods_stay_on_the_frontier_rule(self):
        runs = sweep(LONG, [[0], [5]])
        expected = select_backend(IndexedGraph.of(LONG), None)
        assert [run.backend for run in runs] == [expected, expected]
        assert [run.termination_round for run in runs] == [65, 65]

    def test_short_floods_keep_frontier_selection(self):
        graph = complete_graph(8)
        index = IndexedGraph.of(graph)
        runs = sweep(graph, [[0]])
        assert runs[0].backend == select_backend(index, None)

    def test_explicit_backend_always_wins(self):
        assert sweep(LONG, [[0]], backend="pure")[0].backend == "pure"
        if HAS_NUMPY:  # auto picks pure on this sparse cycle
            assert sweep(LONG, [[0]], backend="numpy")[0].backend == "numpy"

    def test_budget_does_not_change_the_choice(self):
        index = IndexedGraph.of(LONG)
        runs = sweep(LONG, [[0]], max_rounds=4)
        assert runs[0].backend == select_backend(index, None)
        assert not runs[0].terminated

    def test_auto_results_identical_to_the_oracle(self):
        auto = sweep(
            LONG, [[0], [3]], collect_senders=True, collect_receives=True
        )
        oracle = cover_runs(LONG, [[0], [3]], None, True, True)
        for left, right in zip(auto, oracle):
            assert left.termination_round == right.termination_round
            assert left.total_messages == right.total_messages
            assert left.round_edge_counts == right.round_edge_counts
            assert left.sender_sets() == right.sender_sets()
            assert left.receive_rounds() == right.receive_rounds()

    def test_parallel_sweep_resolves_identically(self):
        serial = sweep(LONG, [[v] for v in range(8)])
        sharded = parallel_sweep(LONG, [[v] for v in range(8)], workers=2)
        for left, right in zip(serial, sharded):
            assert left.backend == right.backend
            assert left.termination_round == right.termination_round
            assert left.total_messages == right.total_messages
