"""The engine equivalence matrix.

Amnesiac flooding has four independent implementations:

1. the message-passing engine (:func:`repro.core.flood_trace`) -- the
   paper's model, executed literally;
2. the set-based reference frontier simulator
   (:func:`repro.core.simulate_reference`);
3. the CSR fast path (:func:`repro.fastpath.run_spec`), in every
   backend :func:`repro.fastpath.available_backends` reports -- which
   also powers the public :func:`repro.core.simulate`;
4. the double-cover oracle (:func:`repro.fastpath.oracle_backend.run`),
   which predicts every statistic from one BFS over the implicit cover
   without running a round.  It is not a backend, so its ``"cover"``
   column calls it by name (:func:`tests.conftest.cover_runs`).

This suite holds all of them bit-for-bit equal -- termination round,
terminated flag, per-round directed-message counts, per-round sender
sets and per-node receive rounds -- on a seeded randomized matrix of
Erdős–Rényi graphs, cycles, the paper's own figure instances, and
trees, under single and multiple sources, with and without budget
cut-offs.  The backend axis is parametrized from
``available_backends()`` plus the cover column, so a newly registered
backend joins the matrix by construction.
"""

from __future__ import annotations

import random

import pytest

from repro.api import FloodSpec
from repro.core import flood_trace, simulate, simulate_reference
from repro.fastpath import available_backends, run_spec
from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    paper_even_cycle,
    paper_line,
    paper_triangle,
    path_graph,
    petersen_graph,
    random_tree,
)
from tests.conftest import cover_runs

BACKENDS = pytest.mark.parametrize(
    "backend", (*available_backends(), "cover")
)


def run_indexed(graph, sources, backend, max_rounds=None):
    """One fast-path run (or cover prediction), full statistics collected."""
    if backend == "cover":
        return cover_runs(graph, [sources], max_rounds, True, True)[0]
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


def graph_matrix():
    """(label, graph, source-sets) rows of the equivalence matrix."""
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
        rows.append((label, graph, [nodes[:1], nodes[:2], list(nodes)]))
    rng = random.Random(20190729)
    for i in range(6):
        n = rng.randrange(8, 40)
        p = rng.uniform(0.08, 0.4)
        graph = erdos_renyi(n, p, seed=rng.randrange(10**6), connected=True)
        nodes = graph.nodes()
        sources = [
            [rng.choice(nodes)],
            rng.sample(nodes, k=min(3, n)),
        ]
        rows.append((f"er-{i}-n{n}", graph, sources))
    for i in range(3):
        graph = random_tree(rng.randrange(5, 30), seed=rng.randrange(10**6))
        nodes = graph.nodes()
        rows.append((f"tree-{i}", graph, [[nodes[0]], rng.sample(nodes, k=2)]))
    return rows


MATRIX = graph_matrix()
CASES = [
    pytest.param(graph, sources, id=f"{label}/s{len(sources)}")
    for label, graph, source_sets in MATRIX
    for sources in source_sets
]


def assert_runs_agree(graph, sources, backend):
    """All engines agree on every statistic for one (graph, sources)."""
    trace = flood_trace(graph, sources)
    reference = simulate_reference(graph, sources)
    indexed = run_indexed(graph, sources, backend)
    assert indexed.backend == backend
    runs = {"public": simulate(graph, sources), backend: indexed}

    assert trace.terminated and reference.terminated
    assert reference.termination_round == trace.termination_round
    assert reference.round_edge_counts == trace.per_round_message_counts()
    assert reference.receive_rounds == trace.receive_rounds()
    for name, run in runs.items():
        assert run.terminated, name
        assert run.termination_round == reference.termination_round, name
        assert run.total_messages == reference.total_messages, name
        assert run.round_edge_counts == reference.round_edge_counts, name
        sender_sets = (
            run.sender_sets if name == "public" else run.sender_sets()
        )
        receive_rounds = (
            run.receive_rounds if name == "public" else run.receive_rounds()
        )
        assert sender_sets == reference.sender_sets, name
        assert receive_rounds == reference.receive_rounds, name
        for round_number in range(1, run.termination_round + 1):
            assert (
                set(sender_sets[round_number - 1])
                == trace.senders_in_round(round_number)
            ), name


class TestFullRunEquivalence:
    @BACKENDS
    @pytest.mark.parametrize("graph,sources", CASES)
    def test_engines_agree(self, graph, sources, backend):
        assert_runs_agree(graph, sources, backend)


class TestBudgetEquivalence:
    """Cut-off runs: every engine records the same prefix and flag.

    The invariant asserted here is the one the budget bugfix
    established: a run is flagged non-terminated iff round ``budget + 1``
    actually sends, and the recorded statistics always cover exactly
    ``min(T, budget)`` rounds on every engine.
    """

    @BACKENDS
    @pytest.mark.parametrize(
        "graph,source",
        [
            pytest.param(cycle_graph(7), 0, id="odd-cycle-7"),
            pytest.param(cycle_graph(8), 0, id="even-cycle-8"),
            pytest.param(paper_triangle(), "b", id="paper-triangle"),
            pytest.param(grid_graph(3, 3), (0, 0), id="grid-3x3"),
        ],
    )
    def test_all_budgets(self, graph, source, backend):
        full = simulate_reference(graph, [source])
        horizon = full.termination_round
        for budget in range(1, horizon + 3):
            trace = flood_trace(graph, [source], max_rounds=budget)
            reference = simulate_reference(graph, [source], max_rounds=budget)
            expected_terminated = horizon <= budget
            expected_rounds = min(horizon, budget)
            assert trace.terminated == expected_terminated, budget
            assert reference.terminated == expected_terminated, budget
            assert trace.rounds_executed == expected_rounds, budget
            assert reference.termination_round == expected_rounds, budget
            assert len(reference.round_edge_counts) == expected_rounds
            assert len(reference.sender_sets) == expected_rounds
            assert (
                reference.round_edge_counts
                == trace.per_round_message_counts()
            ), budget
            run = run_indexed(graph, [source], backend, max_rounds=budget)
            assert run.terminated == expected_terminated, budget
            assert run.termination_round == expected_rounds
            assert run.round_edge_counts == reference.round_edge_counts
            assert len(run.sender_ids) == expected_rounds

    def test_budget_exactly_at_termination_is_terminated_everywhere(self):
        graph = cycle_graph(7)  # terminates in exactly 7 rounds
        assert simulate(graph, [0], max_rounds=7).terminated
        assert simulate_reference(graph, [0], max_rounds=7).terminated
        assert flood_trace(graph, [0], max_rounds=7).terminated

    def test_invalid_budget_rejected_everywhere(self):
        from repro.errors import ConfigurationError

        for runner in (simulate, simulate_reference):
            with pytest.raises(ConfigurationError):
                runner(path_graph(3), [0], max_rounds=0)
        with pytest.raises(ConfigurationError):
            flood_trace(path_graph(3), [0], max_rounds=0)


class TestRandomizedSoak:
    """A denser seeded sweep of the cheap statistics only."""

    @BACKENDS
    def test_seeded_random_instances(self, backend):
        rng = random.Random(97)
        for _ in range(25):
            n = rng.randrange(4, 24)
            graph = erdos_renyi(
                n, rng.uniform(0.1, 0.6), seed=rng.randrange(10**6),
                connected=True,
            )
            k = rng.randrange(1, min(4, n) + 1)
            sources = rng.sample(graph.nodes(), k=k)
            reference = simulate_reference(graph, sources)
            trace = flood_trace(graph, sources)
            assert reference.termination_round == trace.termination_round
            run = run_indexed(graph, sources, backend)
            assert (
                run.termination_round,
                run.total_messages,
                run.round_edge_counts,
            ) == (
                reference.termination_round,
                reference.total_messages,
                reference.round_edge_counts,
            )

    @BACKENDS
    def test_disconnected_and_isolated(self, backend):
        graph = Graph.from_edges([(0, 1), (1, 2), (4, 5)], isolated=[9])
        for sources in ([0], [9], [0, 4], [9, 2, 5]):
            reference = simulate_reference(graph, sources)
            run = run_indexed(graph, sources, backend)
            assert run.termination_round == reference.termination_round
            assert run.receive_rounds() == reference.receive_rounds
            assert run.terminated
