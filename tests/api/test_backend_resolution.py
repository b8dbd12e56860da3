"""One backend-resolution rule across every tier.

``repro.fastpath.engine.resolve_backend`` is the only place a backend
is chosen.  Batch tiers (serial and pooled sweeps, ``parallel_sweep``,
the service, the session's ``sweep``/``aquery``/``plan``) apply its
batch rule, which may route ``backend=None`` through the rounds probe;
single-run tiers (``run_spec``, ``FloodSession.run``, ``core.simulate``)
apply its single-run rule, which never probes.  The probe itself is
memoised on the index, so one index pays for it once whatever mix of
tiers it goes through.
"""

from __future__ import annotations

import asyncio

import pytest

import repro.core.amnesiac as amnesiac_module
import repro.fastpath.probe as probe_module
from repro.api import FloodSession, FloodSpec
from repro.core import simulate
from repro.fastpath import IndexedGraph, resolve_backend, run_spec, sweep_specs
from repro.graphs import complete_graph, cycle_graph, erdos_renyi
from repro.parallel import SweepPool, parallel_sweep
from repro.service import FloodService

C101 = cycle_graph(101)
# Past both numpy auto-selection thresholds (arcs >= 4096, mean degree >= 4).
DENSE = erdos_renyi(400, 0.04, seed=5, connected=True)

SPECS = {
    "c101": FloodSpec(C101, (0,)),
    "c101-no-probe": FloodSpec(C101, (0,), probe=False),
    "c101-budget-4": FloodSpec(C101, (0,), max_rounds=4),
    "c101-pure": FloodSpec(C101, (0,), backend="pure"),
    "k8": FloodSpec(complete_graph(8), (0,)),
    "er-dense": FloodSpec(DENSE, (DENSE.nodes()[0],)),
    "kmemory-2": FloodSpec.from_scenario("kmemory:2", C101, (0,)),
}


def batch_rule(spec):
    return resolve_backend(
        spec.index(), spec.backend, spec.max_rounds, spec.variant,
        spec.probe, batch=True,
    )


def single_rule(spec):
    return resolve_backend(
        spec.index(), spec.backend, spec.max_rounds, spec.variant,
        spec.probe, batch=False,
    )


def test_matrix_separates_the_two_rules():
    # The matrix is only a test of agreement if the rules disagree
    # somewhere: the probe sends C101 to the oracle in batches only.
    assert batch_rule(SPECS["c101"]) == "oracle"
    assert single_rule(SPECS["c101"]) != "oracle"
    assert DENSE.num_edges * 2 >= 4096


@pytest.mark.parametrize("batch_size", [1, 2, 40])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_plan_matches_sweep(name, batch_size):
    spec = SPECS[name]
    with FloodSession(workers=0) as session:
        planned = session.plan(spec, batch_size).backend
        swept = session.sweep([spec] * batch_size)[0].backend
    assert planned == swept


@pytest.mark.parametrize("name", sorted(SPECS))
def test_batch_tiers_agree(name):
    spec = SPECS[name]
    expected = batch_rule(spec)

    async def serve():
        async with FloodService(workers=0) as service:
            served = await service.query_spec(spec)
        async with FloodSession(workers=0) as session:
            queried = await session.aquery(spec)
        return served.backend, queried.backend

    with SweepPool(spec.graph, workers=1) as pool:
        pooled = pool.sweep_specs([spec])[0].backend
    sharded = parallel_sweep(
        spec.graph,
        [spec.sources],
        max_rounds=spec.max_rounds,
        backend=spec.backend,
        workers=1,
        variant=spec.variant,
        probe=spec.probe,
    )[0].backend
    with FloodSession(workers=0) as session:
        swept = session.sweep([spec])[0].backend
    served, queried = asyncio.run(serve())
    assert {
        "sweep_specs": sweep_specs([spec])[0].backend,
        "SweepPool.sweep_specs": pooled,
        "parallel_sweep": sharded,
        "FloodService.query_spec": served,
        "FloodSession.sweep": swept,
        "FloodSession.aquery": queried,
    } == dict.fromkeys(
        [
            "sweep_specs",
            "SweepPool.sweep_specs",
            "parallel_sweep",
            "FloodService.query_spec",
            "FloodSession.sweep",
            "FloodSession.aquery",
        ],
        expected,
    )


@pytest.mark.parametrize("name", sorted(SPECS))
def test_single_run_tiers_agree(name, monkeypatch):
    spec = SPECS[name]
    expected = single_rule(spec)
    with FloodSession(workers=0) as session:
        assert session.run(spec).backend == expected
    assert run_spec(spec).backend == expected
    if spec.variant is None and spec.probe:
        # core.simulate builds its own plain spec; spy on the run it
        # delegates to for the backend it resolved.
        seen = []

        def spying(inner, index=None):
            run = run_spec(inner, index)
            seen.append(run.backend)
            return run

        monkeypatch.setattr(amnesiac_module, "run_spec", spying)
        simulate(spec.graph, spec.sources, spec.max_rounds, backend=spec.backend)
        assert seen == [expected]


def test_probe_runs_once_per_index(monkeypatch, fresh_indexes):
    calls = []
    original = probe_module.probe_termination_rounds

    def counting(index, *args, **kwargs):
        calls.append(index)
        return original(index, *args, **kwargs)

    monkeypatch.setattr(probe_module, "probe_termination_rounds", counting)
    graph = cycle_graph(101)
    specs = [FloodSpec(graph, (v,)) for v in range(4)]
    with FloodSession(workers=0) as session:
        for _ in range(10):
            assert session.sweep(specs)[0].backend == "oracle"
    with SweepPool(graph, workers=1) as pool:
        for _ in range(3):
            assert pool.sweep_specs(specs)[0].backend == "oracle"
    assert parallel_sweep(graph, [[0]], workers=1)[0].backend == "oracle"

    async def serve():
        async with FloodService(workers=1) as service:
            await service.query_spec(specs[0])
            await service.query_batch_specs(specs)
        serial = FloodService(workers=0)
        serial.register(graph)
        async with serial:
            return await serial.query_spec(specs[1])

    assert asyncio.run(serve()).backend == "oracle"
    assert calls == [IndexedGraph.of(graph)]
