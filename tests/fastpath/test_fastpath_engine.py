"""Backend dispatch, sweep batching and arc-mask orbits."""

import pytest

from repro.api import FloodSpec
from repro.errors import (
    ConfigurationError,
    NodeNotFoundError,
    NonTerminationError,
)
from repro.core import simulate, simulate_reference
from repro.fastpath import (
    NUMPY_ARC_THRESHOLD,
    NUMPY_MIN_MEAN_DEGREE,
    IndexedGraph,
    arc_mask_of,
    available_backends,
    configuration_of_mask,
    evolve_arc_mask,
    run_spec,
    select_backend,
    step_arc_mask,
    sweep,
)
from repro.fastpath.numpy_backend import HAS_NUMPY
from repro.graphs import (
    Graph,
    cycle_graph,
    erdos_renyi,
    paper_triangle,
    random_tree,
)

BACKENDS = available_backends()


def run_full(graph, sources, **fields):
    """One fast-path run collecting sender sets and receive rounds."""
    fields.setdefault("collect_senders", True)
    fields.setdefault("collect_receives", True)
    return run_spec(FloodSpec(graph=graph, sources=tuple(sources), **fields))


class TestBackendSelection:
    def test_pure_always_available(self):
        assert BACKENDS[0] == "pure"

    def test_auto_selects_pure_on_small_graphs(self):
        index = IndexedGraph.of(cycle_graph(8))
        assert select_backend(index, None) == "pure"

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy not importable")
    def test_auto_selects_numpy_past_threshold(self):
        # Dense enough (mean degree >= NUMPY_MIN_MEAN_DEGREE) and past
        # the arc threshold: numpy wins and is selected.
        n = NUMPY_ARC_THRESHOLD // 8 + 1
        graph = erdos_renyi(n, 10 / n, seed=11, connected=True)
        index = IndexedGraph.of(graph)
        assert index.num_arcs >= NUMPY_ARC_THRESHOLD
        assert index.num_arcs >= NUMPY_MIN_MEAN_DEGREE * index.n
        assert select_backend(index, None) == "numpy"

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy not importable")
    def test_auto_keeps_pure_on_sparse_graphs_past_threshold(self):
        # Arc count alone is not enough: a degree-2 cycle past the arc
        # threshold runs ~n rounds, where the O(arcs)-per-round numpy
        # engine is the catastrophic choice (the committed
        # BENCH_fastpath.json rows measure ~20x slower than pure on
        # C4095).  The selection rule pins mean degree >= 4 too.
        n = NUMPY_ARC_THRESHOLD // 2 + 1
        index = IndexedGraph.of(cycle_graph(n))
        assert index.num_arcs >= NUMPY_ARC_THRESHOLD
        assert index.num_arcs < NUMPY_MIN_MEAN_DEGREE * index.n
        assert select_backend(index, None) == "pure"

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy not importable")
    def test_selection_rule_is_threshold_and_mean_degree(self):
        # The exact rule, pinned: numpy iff arcs >= NUMPY_ARC_THRESHOLD
        # and arcs >= NUMPY_MIN_MEAN_DEGREE * n.
        for graph in (
            cycle_graph(16),  # small and sparse
            cycle_graph(NUMPY_ARC_THRESHOLD // 2 + 1),  # big, sparse
            erdos_renyi(256, 12 / 256, seed=5, connected=True),  # small, dense
            erdos_renyi(1024, 12 / 1024, seed=5, connected=True),  # big, dense
        ):
            index = IndexedGraph.of(graph)
            expected = (
                "numpy"
                if (
                    index.num_arcs >= NUMPY_ARC_THRESHOLD
                    and index.num_arcs >= NUMPY_MIN_MEAN_DEGREE * index.n
                )
                else "pure"
            )
            assert select_backend(index, None) == expected

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            run_full(cycle_graph(4), [0], backend="cuda")

    def test_run_reports_backend(self):
        for backend in BACKENDS:
            run = run_full(cycle_graph(5), [0], backend=backend)
            assert run.backend == backend


class TestRunSpec:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_isolated_source(self, backend):
        run = run_full(Graph({0: []}), [0], backend=backend)
        assert run.terminated
        assert run.termination_round == 0
        assert run.total_messages == 0
        assert run.sender_sets() == []

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_saturation_one_round(self, backend):
        graph = cycle_graph(12)
        run = run_full(graph, graph.nodes(), backend=backend)
        assert run.termination_round == 1

    def test_raise_on_budget(self):
        with pytest.raises(NonTerminationError):
            simulate(cycle_graph(9), [0], max_rounds=1, raise_on_budget=True)
        assert not run_full(cycle_graph(9), [0], max_rounds=1).terminated

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            run_full(cycle_graph(5), [])
        with pytest.raises(NodeNotFoundError):
            run_full(cycle_graph(5), [71])
        with pytest.raises(ConfigurationError):
            run_full(cycle_graph(5), [0], max_rounds=0)

    def test_light_run_refuses_uncollected_statistics(self):
        run = run_spec(FloodSpec(graph=cycle_graph(6), sources=(0,)))
        assert run.termination_round == 3
        with pytest.raises(ConfigurationError):
            run.sender_sets()
        with pytest.raises(ConfigurationError):
            run.receive_rounds()

    def test_index_reuse_parameter(self):
        graph = cycle_graph(9)
        index = IndexedGraph(graph)
        run = run_spec(FloodSpec(graph=graph, sources=(0,)), index=index)
        assert run.index is index


class TestSweep:
    def test_sweep_matches_individual_runs(self):
        graph = erdos_renyi(40, 0.15, seed=11, connected=True)
        nodes = graph.nodes()
        source_sets = [[nodes[i]] for i in range(6)] + [list(nodes[:3])]
        runs = sweep(graph, source_sets)
        assert len(runs) == len(source_sets)
        for sources, run in zip(source_sets, runs):
            reference = simulate_reference(graph, sources)
            assert run.termination_round == reference.termination_round
            assert run.total_messages == reference.total_messages
            assert run.round_edge_counts == reference.round_edge_counts

    def test_sweep_shares_one_index(self):
        graph = cycle_graph(15)
        runs = sweep(graph, [[0], [3], [7]])
        assert runs[0].index is runs[1].index is runs[2].index

    def test_sweep_collect_flags(self):
        graph = paper_triangle()
        light, = sweep(graph, [["b"]])
        assert light.sender_ids is None and light.receive_rounds_by_id is None
        full, = sweep(
            graph, [["b"]], collect_senders=True, collect_receives=True
        )
        reference = simulate_reference(graph, ["b"])
        assert full.sender_sets() == reference.sender_sets
        assert full.receive_rounds() == reference.receive_rounds

    def test_homogeneity_check_never_compares_a_shared_graph(self):
        """Specs of one batch usually share one Graph object; checking
        them must not walk its adjacency (O(graph) per spec)."""
        from repro.fastpath.engine import ensure_homogeneous_specs

        class Uncomparable(dict):
            def __eq__(self, other):
                raise AssertionError("the adjacency was compared")

            __hash__ = dict.__hash__

        graph = cycle_graph(15)
        specs = [FloodSpec(graph=graph, sources=(v,)) for v in (0, 3, 7)]
        graph._adj = Uncomparable(graph._adj)
        assert ensure_homogeneous_specs(specs) is specs[0]


class TestArcMasks:
    def test_mask_roundtrip(self):
        index = IndexedGraph.of(paper_triangle())
        config = frozenset({("a", "b"), ("c", "a")})
        mask = arc_mask_of(index, config)
        assert bin(mask).count("1") == 2  # not int.bit_count: 3.9 support
        assert configuration_of_mask(index, mask) == config

    def test_step_matches_reference_step(self):
        from repro.core import step_frontier

        graph = erdos_renyi(14, 0.3, seed=5, connected=True)
        index = IndexedGraph.of(graph)
        frontier = {(0, n) for n in graph.neighbors(0)}
        mask = arc_mask_of(index, frontier)
        for _ in range(12):
            frontier = step_frontier(graph, frontier)
            mask = step_arc_mask(index, mask)
            assert configuration_of_mask(index, mask) == frozenset(frontier)

    def test_lone_message_on_cycle_never_terminates(self):
        index = IndexedGraph.of(cycle_graph(6))
        terminates, steps, cycle_length, peak = evolve_arc_mask(
            index, arc_mask_of(index, [(0, 1)])
        )
        assert not terminates
        assert cycle_length == 6
        assert peak == 1

    def test_tree_configurations_always_terminate(self):
        graph = random_tree(9, seed=3)
        index = IndexedGraph.of(graph)
        full_mask = (1 << index.num_arcs) - 1
        terminates, _, cycle_length, _ = evolve_arc_mask(index, full_mask)
        assert terminates
        assert cycle_length is None

    def test_source_configuration_matches_simulation(self):
        graph = paper_triangle()
        index = IndexedGraph.of(graph)
        mask = arc_mask_of(
            index, [("b", n) for n in graph.neighbors("b")]
        )
        terminates, steps, _, _ = evolve_arc_mask(index, mask)
        assert terminates
        assert steps == simulate_reference(graph, ["b"]).termination_round
