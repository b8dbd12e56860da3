"""The string scenario registry: parsing, canonicalisation, execution.

Every built-in scenario string must canonicalise into the same spec
the hand-built variant constructor produces (so they batch together)
and execute on the arc-mask fast path; :func:`run_scenario` must keep
reproducing the pinned set-based reference entry points exactly --
same records, same statistics, same budget rule.
"""

import pytest

from repro.api import FloodSpec, scenario_names
from repro.api import scenarios
from repro.api.scenarios import run_scenario
from repro.fastpath import bernoulli_loss, k_memory, thinning
from repro.fastpath.variants import VariantSpec, periodic_injection
from repro.graphs import cycle_graph, paper_triangle
from repro.rng import derive_key
from repro.variants import (
    concurrent_floods,
    periodic_injection_flood,
)

GRAPH = cycle_graph(9)


class TestRegistry:
    def test_builtins_registered(self):
        assert set(scenario_names()) >= {
            "flood",
            "thinning",
            "lossy",
            "kmemory",
            "periodic",
            "multi_message",
            "random_delay",
            "dynamic",
        }


# One argument list per built-in scenario name.
SCENARIO_ARGS = {
    "flood": "",
    "thinning": ":0.9",
    "lossy": ":0.1",
    "kmemory": ":2",
    "periodic": ":3,4",
    "multi_message": "",
    "random_delay": ":0.3",
    "dynamic": ":2",
}


@pytest.mark.parametrize("name", scenario_names())
def test_binder_returns_a_variant_and_a_pinned_seed_wins(name):
    text = name + SCENARIO_ARGS[name]
    plain = FloodSpec(graph=GRAPH, sources=(0,))
    variant = scenarios.bind_scenario(text, plain, 5)
    assert variant is None or isinstance(variant, VariantSpec)
    if variant == scenarios.bind_scenario(text, plain, 0):
        # Seedless: the seed argument changes nothing.
        assert FloodSpec.from_scenario(
            text, GRAPH, [0], seed=5
        ) == FloodSpec.from_scenario(text, GRAPH, [0])
        return
    pinned = FloodSpec.from_scenario(f"{text},seed=7", GRAPH, [0], seed=5)
    assert pinned == FloodSpec.from_scenario(text, GRAPH, [0], seed=7)
    assert pinned != FloodSpec.from_scenario(text, GRAPH, [0], seed=5)


class TestVariantBackedScenarios:
    def test_lossy_canonicalises_to_variant(self):
        by_string = FloodSpec.from_scenario("lossy:0.1", GRAPH, [0], seed=7)
        by_hand = FloodSpec(
            graph=GRAPH, sources=(0,), variant=bernoulli_loss(0.1, seed=7)
        )
        assert by_string == by_hand

    def test_thinning_and_kmemory(self):
        assert FloodSpec.from_scenario(
            "thinning:0.9", GRAPH, [0], seed=3
        ).variant == thinning(0.9, seed=3)
        assert FloodSpec.from_scenario(
            "kmemory:2", GRAPH, [0]
        ).variant == k_memory(2)

    def test_flood_is_the_plain_process(self):
        assert FloodSpec.from_scenario("flood", GRAPH, [0]) == FloodSpec(
            graph=GRAPH, sources=(0,)
        )

    def test_float_spelling_is_canonical(self):
        assert FloodSpec.from_scenario(
            "lossy:0.10", GRAPH, [0]
        ) == FloodSpec.from_scenario("lossy:0.1", GRAPH, [0])

    def test_inline_seed_equals_kwarg_seed(self):
        assert FloodSpec.from_scenario(
            "lossy:0.1,seed=7", GRAPH, [0]
        ) == FloodSpec.from_scenario("lossy:0.1", GRAPH, [0], seed=7)


class TestPortedScenarios:
    """The ex-set-based scenarios, now variant-backed on the fast path."""

    def test_periodic_reference_matches_legacy_engine(self):
        spec = FloodSpec.from_scenario("periodic:3,4", GRAPH, [0])
        assert spec.variant == periodic_injection(3, 4)
        result = run_scenario(spec)
        reference = periodic_injection_flood(
            GRAPH, 0, 3, 4, max_rounds=spec.max_rounds
        )
        assert result.raw == reference
        assert result.terminated == reference.terminates
        assert result.termination_round == reference.total_rounds
        assert result.total_messages == reference.total_messages
        assert result.backend == "reference:periodic"

    def test_periodic_default_injections(self):
        spec = FloodSpec.from_scenario("periodic:2", GRAPH, [0])
        assert spec.variant == periodic_injection(2, 3)

    def test_multi_message_matches_reference(self):
        spec = FloodSpec.from_scenario("multi_message", GRAPH, [0, 4])
        result = run_scenario(spec)
        trace = concurrent_floods(
            GRAPH, {0: [0], 1: [4]}, max_rounds=spec.max_rounds
        )
        assert result.termination_round == trace.rounds_executed
        assert result.total_messages == trace.total_messages()
        assert result.terminated == trace.terminated

    def test_random_delay_fast_matches_reference_per_stream(self):
        triangle = paper_triangle()
        from repro.api import FloodSession

        with FloodSession(workers=0) as session:
            for stream in (0, 1):
                spec = FloodSpec.from_scenario(
                    "random_delay:0.3",
                    triangle,
                    ["b"],
                    seed=2,
                    max_rounds=5_000,
                    stream=stream,
                )
                fast = session.run(spec)
                reference = session.run(spec, reference=True)
                assert fast.terminated == reference.terminated
                assert fast.termination_round == reference.termination_round
                assert fast.round_edge_counts == reference.round_edge_counts

    def test_random_delay_default_budget_is_the_step_budget(self):
        """Unset max_rounds resolves to the ASYNC step budget, not the
        round budget: async steps are sub-round, and the bare 4n+8
        would cut metastable floods off before the signal appears."""
        from repro.variants.random_delay import default_step_budget

        graph = cycle_graph(20)
        spec = FloodSpec.from_scenario("random_delay:0.85", graph, [0])
        assert spec.max_rounds == default_step_budget(graph)
        # And under that budget this supercritical-delay trial actually
        # terminates -- the round budget (88 steps) would cut it off.
        result = run_scenario(spec)
        assert result.terminated
        assert result.termination_round > 88

    def test_random_delay_streams_are_counter_derived(self):
        spec0 = FloodSpec.from_scenario(
            "random_delay:0.5", GRAPH, [0], seed=9, max_rounds=400
        )
        spec1 = spec0.replace(stream=1)
        run0 = run_scenario(spec0)
        run1 = run_scenario(spec1)
        rerun0 = run_scenario(spec0)
        assert run0.round_edge_counts == rerun0.round_edge_counts
        assert derive_key(9, 0) != derive_key(9, 1)
        assert (run0.termination_round, run0.round_edge_counts) != (
            run1.termination_round,
            run1.round_edge_counts,
        )

    def test_session_reference_door_agrees_with_run_scenario(self):
        from repro.api import FloodSession

        spec = FloodSpec.from_scenario("periodic:3,4", GRAPH, [0])
        with FloodSession(workers=0) as session:
            reference = session.run(spec, reference=True)
            assert reference.raw == run_scenario(spec).raw
            assert reference.backend == "reference:periodic"
            fast = session.run(spec)
            assert fast.backend == "pure"
            assert fast.terminated == reference.terminated
            assert fast.termination_round == reference.termination_round
            assert fast.total_messages == reference.total_messages

    def test_fast_path_runs_ported_scenarios(self):
        from repro.fastpath import run_spec

        spec = FloodSpec.from_scenario("periodic:3", GRAPH, [0])
        run = run_spec(spec)
        assert run.backend == "pure"
        reference = run_scenario(spec)
        assert run.terminated == reference.terminated
        assert run.total_messages == reference.total_messages

    def test_service_runs_ported_scenarios(self):
        import asyncio

        from repro.service import FloodService

        spec = FloodSpec.from_scenario("multi_message", GRAPH, [0, 4])
        reference = run_scenario(spec)

        async def main():
            async with FloodService(workers=0) as service:
                return await service.query_spec(spec)

        run = asyncio.run(main())
        assert run.terminated == reference.terminated
        assert run.termination_round == reference.termination_round
        assert run.total_messages == reference.total_messages
        assert run.round_edge_counts == reference.round_edge_counts
