"""The facade equivalence matrix: the session == every lower tier.

For every backend x variant kind x budget combination,
``FloodSession.run`` / ``sweep`` / ``aquery`` must return results
**bit-identical** to the tiers underneath them -- ``fastpath.run_spec``
(and ``core.simulate``), ``fastpath.sweep_specs`` and the kwargs
``fastpath.sweep``, ``parallel_sweep`` (serial and pooled), and
``FloodService.query_spec`` / ``query_batch_specs``.  The backend axis
is parametrized from ``available_backends()`` (plus ``None``,
auto-selection), so a newly registered backend joins the matrix by
construction; the variant axis covers every built-in kind, the
graph-bound ``dynamic`` schedule through its scenario string.  Budget
``None`` is the case where the entry points could drift: every one
must apply the spec's own default (step-granular for
``random_delay``), and reject the budgets a spec rejects.
"""

import asyncio

import pytest

from repro.api import FloodSession, FloodSpec
from repro.core import simulate
from repro.errors import ConfigurationError
from repro.fastpath import (
    available_backends,
    bernoulli_loss,
    k_memory,
    multi_message,
    periodic_injection,
    random_delay,
    run_spec,
    sweep,
    sweep_specs,
    thinning,
)
from repro.fastpath.variants import PERIODIC
from repro.graphs import cycle_graph, erdos_renyi
from repro.parallel import parallel_sweep
from repro.service import FloodService

GRAPHS = {
    "er40": erdos_renyi(40, 0.12, seed=3, connected=True),
    "c9": cycle_graph(9),
}

BACKENDS = [None, *available_backends()]
VARIANTS = {
    "det": None,
    "thin": thinning(0.7, seed=11),
    "loss": bernoulli_loss(0.35, seed=7),
    "mem2": k_memory(2),
    "mem0": k_memory(0),
    "delay": random_delay(0.4, seed=5),
    "periodic": periodic_injection(3, 2),
    "multi": multi_message(),
    # Graph-bound: the scenario string compiles a schedule per graph.
    "dynamic": "dynamic:2,seed=9",
}
BUDGETS = [None, 3, 500]


def variant_for(graph_name, variant_name):
    """The VariantSpec of ``variant_name`` on graph ``graph_name``."""
    variant = VARIANTS[variant_name]
    if isinstance(variant, str):
        graph = GRAPHS[graph_name]
        return FloodSpec.from_scenario(variant, graph, graph.nodes()[:1]).variant
    return variant


def combos(budgets=BUDGETS):
    for graph_name in GRAPHS:
        for backend in BACKENDS:
            for variant_name in VARIANTS:
                if variant_name != "det" and backend not in (None, "pure"):
                    continue  # invalid by construction, covered elsewhere
                variant = variant_for(graph_name, variant_name)
                for budget in budgets:
                    if (graph_name, variant_name, budget) == ("er40", "delay", None):
                        # Metastable: every run rides the 5000-step
                        # default, ~0.7 s a run.  c9 checks the same
                        # step-granular default (its runs outlast the
                        # round budget) in milliseconds.
                        continue
                    yield pytest.param(
                        graph_name,
                        backend,
                        variant,
                        budget,
                        id=f"{graph_name}-{backend}-{variant_name}-{budget}",
                    )


MATRIX = list(combos())


@pytest.mark.parametrize("graph_name,backend,variant,budget", MATRIX)
class TestRunEquivalence:
    def test_session_run_equals_run_spec(
        self, graph_name, backend, variant, budget
    ):
        graph = GRAPHS[graph_name]
        source = graph.nodes()[0]
        spec = FloodSpec(
            graph=graph,
            sources=(source,),
            max_rounds=budget,
            backend=backend,
            variant=variant,
            collect_senders=True,
            collect_receives=True,
        )
        direct = run_spec(spec)
        with FloodSession(workers=0) as session:
            result = session.run(spec)
        assert result.raw == direct
        assert result.backend == direct.backend
        assert result.terminated == direct.terminated
        assert result.termination_round == direct.termination_round
        assert result.total_messages == direct.total_messages
        assert result.round_edge_counts == direct.round_edge_counts


@pytest.mark.parametrize("graph_name,backend,variant,budget", MATRIX)
class TestSweepEquivalence:
    def test_session_sweep_equals_sweep_specs_and_sweep(
        self, graph_name, backend, variant, budget
    ):
        graph = GRAPHS[graph_name]
        sets = sweep_sets(graph, variant)
        kwargs_runs = sweep(
            graph, sets, max_rounds=budget, backend=backend, variant=variant
        )
        specs = [
            FloodSpec(
                graph=graph,
                sources=tuple(sources),
                max_rounds=budget,
                backend=backend,
                variant=variant,
                stream=position,
            )
            for position, sources in enumerate(sets)
        ]
        with FloodSession(workers=0) as session:
            results = session.sweep(specs)
        assert [r.raw for r in results] == sweep_specs(specs)
        assert [r.raw for r in results] == kwargs_runs


def sweep_sets(graph, variant):
    sets = [[v] for v in graph.nodes()[:6]]
    if variant is None or variant.kind != PERIODIC:
        # The periodic variant re-injects from a single source.
        sets.append(list(graph.nodes()[:2]))
    return sets


@pytest.mark.parametrize("workers", [None, 2])
@pytest.mark.parametrize(
    "graph_name,backend,variant,budget", list(combos(budgets=[None]))
)
def test_parallel_sweep_equals_session_sweep(
    graph_name, backend, variant, budget, workers
):
    """``parallel_sweep`` resolves the batch exactly like the spec path.

    At budget ``None`` it must apply the spec's default budget rule,
    whether the batch runs serially (``workers=None`` on a small batch)
    or across a real pool.
    """
    graph = GRAPHS[graph_name]
    sets = sweep_sets(graph, variant)
    specs = [
        FloodSpec(
            graph=graph,
            sources=tuple(sources),
            max_rounds=budget,
            backend=backend,
            variant=variant,
            stream=position,
        )
        for position, sources in enumerate(sets)
    ]
    with FloodSession(workers=0) as session:
        expected = [result.raw for result in session.sweep(specs)]
    runs = parallel_sweep(
        graph,
        sets,
        max_rounds=budget,
        backend=backend,
        variant=variant,
        workers=workers,
    )
    assert runs == expected
    assert runs == sweep(
        graph, sets, max_rounds=budget, backend=backend, variant=variant
    )


@pytest.mark.parametrize("entry", [sweep, parallel_sweep])
@pytest.mark.parametrize("bad", [True, 2.0, 0])
@pytest.mark.parametrize("batch", ["sets", "empty"])
def test_kwargs_entry_points_reject_what_a_spec_rejects(entry, bad, batch):
    graph = GRAPHS["c9"]
    with pytest.raises(ConfigurationError, match="max_rounds"):
        FloodSpec(graph=graph, sources=(0,), max_rounds=bad)
    sets = [[0], [3]] if batch == "sets" else []
    with pytest.raises(ConfigurationError, match="max_rounds"):
        entry(graph, sets, max_rounds=bad)


class TestSweepAcrossTiers:
    """One denser slice: serial facade == pooled facade == parallel_sweep."""

    @pytest.mark.parametrize(
        "variant",
        [None, thinning(0.6, seed=2), k_memory(2)],
        ids=["det", "thin", "mem2"],
    )
    def test_pooled_session_matches_parallel_sweep(self, variant):
        graph = GRAPHS["er40"]
        sets = [[v] for v in graph.nodes()[:8]]
        legacy = parallel_sweep(
            graph, sets, max_rounds=60, variant=variant, workers=2
        )
        specs = [
            FloodSpec(
                graph=graph,
                sources=tuple(sources),
                max_rounds=60,
                variant=variant,
                stream=position,
            )
            for position, sources in enumerate(sets)
        ]
        with FloodSession(workers=2) as pooled:
            pooled_results = pooled.sweep(specs)
        with FloodSession(workers=0) as serial:
            serial_results = serial.sweep(specs)
        assert [r.raw for r in pooled_results] == legacy
        assert [r.raw for r in serial_results] == legacy

    def test_heterogeneous_specs_keep_input_order(self):
        graph = GRAPHS["er40"]
        cycle = GRAPHS["c9"]
        specs = [
            FloodSpec(graph=graph, sources=(graph.nodes()[0],)),
            FloodSpec(graph=cycle, sources=(0,), backend="pure"),
            FloodSpec(graph=graph, sources=(graph.nodes()[1],)),
            FloodSpec(
                graph=cycle, sources=(3,), variant=thinning(0.8, seed=1)
            ),
            FloodSpec.from_scenario("periodic:3,4", cycle, (0,)),
        ]
        with FloodSession(workers=0) as session:
            results = session.sweep(specs)
        assert [r.spec for r in results] == specs
        with FloodSession(workers=0) as session:
            singles = [session.run(spec) for spec in specs]
        # run(spec) is sweep([spec]): one resolution, one engine.
        assert [r.raw for r in singles] == [r.raw for r in results]


class TestServiceEquivalence:
    @pytest.mark.parametrize("graph_name,backend,variant,budget", MATRIX)
    def test_aquery_equals_service_query_spec(
        self, graph_name, backend, variant, budget
    ):
        graph = GRAPHS[graph_name]
        spec = FloodSpec(
            graph=graph,
            sources=(graph.nodes()[0],),
            max_rounds=budget,
            backend=backend,
            variant=variant,
        )

        async def main():
            async with FloodService(workers=0) as service:
                served = await service.query_spec(spec)
            async with FloodSession(workers=0) as session:
                result = await session.aquery(spec)
            return served, result

        served, result = asyncio.run(main())
        assert result.raw == served

    def test_query_batch_specs_equals_sweep_specs(self):
        graph = GRAPHS["er40"]
        variant = bernoulli_loss(0.2, seed=4)
        specs = [
            FloodSpec(
                graph=graph,
                sources=(node,),
                max_rounds=80,
                variant=variant,
                stream=position,
            )
            for position, node in enumerate(graph.nodes()[:5])
        ]

        async def main():
            async with FloodService(workers=0) as service:
                return await service.query_batch_specs(specs)

        served = asyncio.run(main())
        assert served == sweep_specs(specs)
        assert served == sweep(
            graph, [spec.sources for spec in specs], max_rounds=80,
            variant=variant,
        )

    def test_equal_specs_coalesce_into_one_batch(self):
        """The spec IS the micro-batch key: identical concurrent
        requests must share a pool batch."""
        graph = GRAPHS["c9"]

        async def main():
            async with FloodService(workers=0, batch_window=0.05) as service:
                service.register(graph)
                spec = FloodSpec(graph=graph, sources=(0,), max_rounds=50)
                runs = await asyncio.gather(
                    *(service.query_spec(spec) for _ in range(6))
                )
                return service.stats, runs

        stats, runs = asyncio.run(main())
        assert stats.queries == 6
        assert stats.coalesced_batches >= 1
        assert stats.largest_batch == 6
        assert all(run == runs[0] for run in runs)


class TestCoreSimulateShim:
    def test_core_simulate_matches_session_run(self):
        graph = GRAPHS["er40"]
        source = graph.nodes()[0]
        legacy = simulate(graph, [source])
        spec = FloodSpec(
            graph=graph,
            sources=(source,),
            collect_senders=True,
            collect_receives=True,
        )
        with FloodSession(workers=0) as session:
            result = session.run(spec)
        assert result.termination_round == legacy.termination_round
        assert result.total_messages == legacy.total_messages
        assert result.raw.sender_sets() == legacy.sender_sets
        assert result.raw.receive_rounds() == legacy.receive_rounds
