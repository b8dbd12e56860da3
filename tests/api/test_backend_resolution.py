"""One backend-resolution rule across every tier.

``repro.fastpath.engine.resolve_backend`` is the only place a backend
is chosen: variants resolve through ``variant_backend``, everything
else through ``select_backend`` -- for single runs and batches of every
size alike.  So a ``backend=None`` spec runs on the engine
``select_backend(index, None)`` picks wherever it goes: ``run_spec``,
``core.simulate``, the serial and pooled sweeps, ``parallel_sweep``,
the session's planner, ``run``, ``sweep`` and ``aquery``, and the
service.
``all_pairs_termination`` and ``receipt_counts`` take the same rule
and must equal the double-cover oracle's answers.
"""

from __future__ import annotations

import asyncio

import pytest

import repro.core.amnesiac as amnesiac_module
from repro.api import FloodSession, FloodSpec
from repro.core import all_pairs_termination, simulate
from repro.fastpath import (
    IndexedGraph,
    resolve_backend,
    run_spec,
    select_backend,
    sweep_specs,
)
from repro.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi,
    grid_graph,
    path_graph,
    petersen_graph,
)
from repro.fastpath.numpy_backend import HAS_NUMPY
from repro.parallel import SweepPool, parallel_sweep
from repro.parallel.census import receipt_counts
from repro.service import FloodService
from tests.conftest import cover_runs

C101 = cycle_graph(101)
# Past both numpy auto-selection thresholds (arcs >= 4096, mean degree >= 4).
DENSE = erdos_renyi(400, 0.04, seed=5, connected=True)

GRAPHS = {
    "c101": C101,
    "c4095": cycle_graph(4095),
    "k8": complete_graph(8),
    "er400": DENSE,
}

SPECS = {
    "c101-budget-4": FloodSpec(C101, (0,), max_rounds=4),
    "c101-pure": FloodSpec(C101, (0,), backend="pure"),
    **(
        {"c101-numpy": FloodSpec(C101, (0,), backend="numpy")}
        if HAS_NUMPY
        else {}
    ),
    "er-dense-pure": FloodSpec(DENSE, (DENSE.nodes()[0],), backend="pure"),
    "kmemory-2": FloodSpec.from_scenario("kmemory:2", C101, (0,)),
    "lossy": FloodSpec.from_scenario("lossy:0.2", C101, (0,), seed=3),
}


def tier_backends(specs):
    """The backend each tier ran ``specs`` (one homogeneous batch) on."""
    head = specs[0]
    graph = head.graph
    with FloodSession(workers=0) as session:
        planned = {session.plan(head, len(specs)).backend}
        session_run = {session.run(spec).backend for spec in specs}
        session_sweep = {result.backend for result in session.sweep(specs)}
    with SweepPool(graph, workers=1) as pool:
        pooled = {run.backend for run in pool.sweep_specs(specs)}
    sharded = {
        run.backend
        for run in parallel_sweep(
            graph,
            [spec.sources for spec in specs],
            max_rounds=head.max_rounds,
            backend=head.backend,
            workers=1,
            variant=head.variant,
        )
    }

    async def serve():
        async with FloodService(workers=0) as service:
            served = await asyncio.gather(
                *(service.query_spec(spec) for spec in specs)
            )
        async with FloodSession(workers=0) as session:
            queried = await asyncio.gather(
                *(session.aquery(spec) for spec in specs)
            )
        return (
            {run.backend for run in served},
            {result.backend for result in queried},
        )

    served, queried = asyncio.run(serve())
    backends = {
        "run_spec": {run_spec(spec).backend for spec in specs},
        "sweep_specs": {run.backend for run in sweep_specs(specs)},
        "SweepPool.sweep_specs": pooled,
        "parallel_sweep": sharded,
        "FloodSession.plan": planned,
        "FloodSession.run": session_run,
        "FloodSession.sweep": session_sweep,
        "FloodService.query_spec": served,
        "FloodSession.aquery": queried,
    }
    if head.variant is None:
        backends["core.simulate"] = simulated_backends(specs)
    return backends


def simulated_backends(specs):
    """The backends ``core.simulate`` ran ``specs`` on.

    ``simulate`` builds its own plain spec; spy on the run it delegates
    to for the backend it resolved.
    """
    seen = set()

    def spying(inner, index=None):
        run = run_spec(inner, index)
        seen.add(run.backend)
        return run

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(amnesiac_module, "run_spec", spying)
        for spec in specs:
            simulate(
                spec.graph, spec.sources, spec.max_rounds, backend=spec.backend
            )
    return seen


@pytest.mark.parametrize("batch_size", [1, 2, 40])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_auto_resolves_by_the_frontier_rule_at_every_tier(name, batch_size):
    graph = GRAPHS[name]
    nodes = graph.nodes()
    specs = [
        FloodSpec(graph, (nodes[(7 * i) % len(nodes)],))
        for i in range(batch_size)
    ]
    expected = select_backend(IndexedGraph.of(graph), None)
    backends = tier_backends(specs)
    assert backends == dict.fromkeys(backends, {expected})


@pytest.mark.parametrize("name", sorted(SPECS))
def test_explicit_and_variant_specs_resolve_alike_at_every_tier(name):
    spec = SPECS[name]
    expected = resolve_backend(spec.index(), spec.backend, spec.variant)
    backends = tier_backends([spec, spec])
    assert backends == dict.fromkeys(backends, {expected})


PLAN_SPECS = {
    "c101": FloodSpec(C101, (0,)),
    "k8": FloodSpec(complete_graph(8), (0,)),
    "er-dense": FloodSpec(DENSE, (DENSE.nodes()[0],)),
    **SPECS,
}


@pytest.mark.parametrize("batch_size", [1, 2, 40])
@pytest.mark.parametrize("name", sorted(PLAN_SPECS))
def test_plan_matches_sweep(name, batch_size):
    spec = PLAN_SPECS[name]
    with FloodSession(workers=0) as session:
        planned = session.plan(spec, batch_size).backend
        swept = session.sweep([spec] * batch_size)[0].backend
    assert planned == swept


def matrix_families():
    return [
        pytest.param(cycle_graph(9), id="odd-cycle-9"),
        pytest.param(cycle_graph(65), id="odd-cycle-65"),
        pytest.param(cycle_graph(8), id="even-cycle-8"),
        pytest.param(complete_bipartite_graph(3, 4), id="k3-4"),
        pytest.param(petersen_graph(), id="petersen"),
        pytest.param(grid_graph(4, 5), id="grid-4x5"),
        pytest.param(path_graph(7), id="path-7"),
        pytest.param(erdos_renyi(60, 0.08, seed=3, connected=True), id="er-60"),
        pytest.param(
            Graph.from_edges([(0, 1), (1, 2), (3, 4)]), id="disconnected"
        ),
    ]


@pytest.mark.parametrize("graph", matrix_families())
def test_all_pairs_equals_the_cover_reference(graph):
    result = all_pairs_termination(graph, pair_limit=80)
    pairs = [pair for pair, _ in result]
    oracle = cover_runs(graph, pairs)
    assert [rounds for _, rounds in result] == [
        run.termination_round for run in oracle
    ]


@pytest.mark.parametrize("graph", matrix_families())
def test_receipt_counts_equal_the_cover_reference(graph):
    nodes = graph.nodes()
    source_sets = [[v] for v in nodes] + [
        [a, b] for a, b in zip(nodes, nodes[2:])
    ]
    oracle = cover_runs(graph, source_sets, collect_receives=True)
    assert receipt_counts(graph, source_sets) == [
        tuple(len(rounds) for rounds in run.receive_rounds_by_id)
        for run in oracle
    ]
