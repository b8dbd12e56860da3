"""The double-cover oracle vs the frontier engines and the explicit cover.

Three independent implementations of "what does this flood do":

1. the frontier engines (pure bitmask / numpy arc arrays), which *run*
   the process round by round;
2. the CSR oracle (:func:`repro.fastpath.oracle_backend.run`, called by
   name through :func:`tests.conftest.cover_runs`), one BFS over the
   implicit double cover;
3. the explicit-cover predictors in :mod:`repro.graphs.double_cover`,
   plain BFS on a materialised cover graph.

1 and 2 share the index but no dynamics; 2 and 3 share the theorem but
no code.  This suite pins all three to each other on the equivalence
matrix's graph families, including budget cut-offs and light-collection
runs.
"""

from __future__ import annotations

import random

import pytest

from repro.api import FloodSpec
from repro.core import simulate_reference
from repro.errors import ConfigurationError
from repro.fastpath import available_backends, run_spec, sweep
from repro.graphs import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    paper_even_cycle,
    paper_line,
    paper_triangle,
    path_graph,
    petersen_graph,
    predicted_message_complexity,
    predicted_receive_rounds,
    predicted_round_message_counts,
    predicted_termination_round,
    random_tree,
)
from tests.conftest import cover_runs


def run_full(graph, sources, backend, max_rounds=None):
    """One fast-path run collecting sender sets and receive rounds."""
    return run_spec(
        FloodSpec(
            graph=graph,
            sources=tuple(sources),
            max_rounds=max_rounds,
            backend=backend,
            collect_senders=True,
            collect_receives=True,
        )
    )


def matrix():
    """The equivalence-matrix families, with single and multi sources."""
    rows = []
    for label, graph in [
        ("paper-line", paper_line()),
        ("paper-triangle", paper_triangle()),
        ("paper-even-cycle", paper_even_cycle()),
        ("odd-cycle-9", cycle_graph(9)),
        ("even-cycle-8", cycle_graph(8)),
        ("path-5", path_graph(5)),
        ("grid-3x4", grid_graph(3, 4)),
        ("petersen", petersen_graph()),
        ("clique-6", complete_graph(6)),
    ]:
        nodes = graph.nodes()
        for sources in (nodes[:1], nodes[:2], list(nodes)):
            rows.append(
                pytest.param(graph, sources, id=f"{label}/s{len(sources)}")
            )
    rng = random.Random(20190730)
    for i in range(5):
        n = rng.randrange(8, 40)
        graph = erdos_renyi(
            n, rng.uniform(0.08, 0.4), seed=rng.randrange(10**6), connected=True
        )
        rows.append(
            pytest.param(graph, [graph.nodes()[0]], id=f"er-{i}-n{n}")
        )
    for i in range(3):
        graph = random_tree(rng.randrange(5, 30), seed=rng.randrange(10**6))
        rows.append(pytest.param(graph, [graph.nodes()[0]], id=f"tree-{i}"))
    return rows


MATRIX = matrix()


class TestOracleVsFrontierEngines:
    @pytest.mark.parametrize("graph,sources", MATRIX)
    def test_full_statistics_agree(self, graph, sources):
        (oracle,) = cover_runs(graph, [sources], None, True, True)
        for backend in available_backends():
            frontier = run_full(graph, sources, backend)
            assert oracle.terminated == frontier.terminated
            assert oracle.termination_round == frontier.termination_round
            assert oracle.total_messages == frontier.total_messages
            assert oracle.round_edge_counts == frontier.round_edge_counts
            assert oracle.sender_sets() == frontier.sender_sets()
            assert oracle.receive_rounds() == frontier.receive_rounds()

    @pytest.mark.parametrize(
        "graph,source",
        [
            pytest.param(cycle_graph(7), 0, id="odd-cycle-7"),
            pytest.param(cycle_graph(8), 0, id="even-cycle-8"),
            pytest.param(paper_triangle(), "b", id="paper-triangle"),
            pytest.param(grid_graph(3, 3), (0, 0), id="grid-3x3"),
        ],
    )
    def test_budget_cutoffs_agree(self, graph, source):
        horizon = simulate_reference(graph, [source]).termination_round
        for budget in range(1, horizon + 3):
            reference = simulate_reference(graph, [source], max_rounds=budget)
            (oracle,) = cover_runs(graph, [[source]], budget, True, True)
            assert oracle.terminated == reference.terminated, budget
            assert oracle.termination_round == reference.termination_round
            assert oracle.round_edge_counts == reference.round_edge_counts
            assert oracle.sender_sets() == reference.sender_sets
            assert oracle.receive_rounds() == reference.receive_rounds


class TestOracleVsExplicitCover:
    """The CSR lane against the shared-no-code cover-graph predictors."""

    @pytest.mark.parametrize("graph,sources", MATRIX)
    def test_predictors_agree(self, graph, sources):
        (run,) = cover_runs(graph, [sources], None, True, True)
        assert run.termination_round == predicted_termination_round(
            graph, sources
        )
        assert run.total_messages == predicted_message_complexity(
            graph, sources
        )
        assert run.round_edge_counts == predicted_round_message_counts(
            graph, sources
        )
        assert run.receive_rounds() == predicted_receive_rounds(graph, sources)


class TestOracleAsReference:
    def test_batch_equals_pure_sweep(self):
        graph = erdos_renyi(60, 0.1, seed=8, connected=True)
        sets = [[v] for v in graph.nodes()[:12]] + [list(graph.nodes()[:4])]
        fast = cover_runs(graph, sets)
        slow = sweep(graph, sets, backend="pure")
        assert [r.termination_round for r in fast] == [
            r.termination_round for r in slow
        ]
        assert [r.total_messages for r in fast] == [
            r.total_messages for r in slow
        ]
        assert [r.round_edge_counts for r in fast] == [
            r.round_edge_counts for r in slow
        ]

    def test_light_collection(self):
        (run,) = cover_runs(cycle_graph(6), [[0]])
        assert run.termination_round == 3
        with pytest.raises(ConfigurationError):
            run.sender_sets()
        with pytest.raises(ConfigurationError):
            run.receive_rounds()

    def test_isolated_source(self):
        from repro.graphs import Graph

        (run,) = cover_runs(Graph({0: []}), [[0]], None, True, True)
        assert run.terminated
        assert run.termination_round == 0
        assert run.total_messages == 0
