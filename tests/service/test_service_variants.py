"""Variant queries through the flood service.

The service contract extends to variants: a ``query(variant=...)``
result is bit-identical to the serial ``sweep(graph, [sources],
variant=...)`` of the same request for every worker mode and
interleaving -- coalescing cannot move a query onto a different RNG
stream, because stream keys are derived per request, never from batch
position.  Stochastic requests must never route to the deterministic
double-cover oracle, whether they name it or resolve automatically.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import FloodSpec
from repro.errors import ConfigurationError
from repro.fastpath import bernoulli_loss, k_memory, sweep, thinning
from repro.fastpath.numpy_backend import HAS_NUMPY
from repro.graphs import cycle_graph, erdos_renyi
from repro.service import FloodService


def run(coro):
    return asyncio.run(coro)


def assert_same_run(expected, actual):
    assert expected.sources == actual.sources
    assert expected.backend == actual.backend
    assert expected.variant == actual.variant
    assert expected.terminated == actual.terminated
    assert expected.termination_round == actual.termination_round
    assert expected.total_messages == actual.total_messages
    assert expected.round_edge_counts == actual.round_edge_counts
    assert expected.reached_count == actual.reached_count


class TestVariantQueries:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_query_matches_serial_sweep(self, workers):
        graph = erdos_renyi(40, 0.12, seed=23, connected=True)
        spec = bernoulli_loss(0.3, seed=17)

        async def main():
            async with FloodService(workers=workers) as service:
                return await service.query_spec(
                    FloodSpec(graph, [graph.nodes()[0]], variant=spec)
                )

        actual = run(main())
        expected = sweep(graph, [[graph.nodes()[0]]], variant=spec)[0]
        assert_same_run(expected, actual)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_query_batch_matches_serial_sweep(self, workers):
        graph = cycle_graph(20)
        spec = thinning(0.7, seed=9)
        sets = [[v] for v in range(12)]

        async def main():
            async with FloodService(workers=workers) as service:
                return await service.query_batch_specs(
                    [
                        FloodSpec(graph, s, variant=spec, stream=i)
                        for i, s in enumerate(sets)
                    ]
                )

        actual = run(main())
        expected = sweep(graph, sets, variant=spec)
        assert len(actual) == len(expected)
        for left, right in zip(expected, actual):
            assert_same_run(left, right)

    def test_coalescing_does_not_move_streams(self):
        # Many concurrent identical queries coalesce into one pool
        # batch; each must still behave as position 0 of its seed
        # stream -- identical requests, identical answers.
        graph = cycle_graph(16)
        spec = bernoulli_loss(0.25, seed=31)

        async def main():
            async with FloodService(workers=0, batch_window=0.01) as service:
                return await asyncio.gather(
                    *(
                        service.query_spec(FloodSpec(graph, [0], variant=spec))
                        for _ in range(8)
                    )
                )

        results = run(main())
        expected = sweep(graph, [[0]], variant=spec)[0]
        for actual in results:
            assert_same_run(expected, actual)

    def test_mixed_variant_traffic_batches_apart(self):
        # Different specs (and no-spec) must not share a micro-batch
        # key; every caller still gets its own correct result.
        graph = cycle_graph(12)
        loss = bernoulli_loss(0.4, seed=3)
        memory = k_memory(2)

        async def main():
            async with FloodService(workers=0, batch_window=0.01) as service:
                return await asyncio.gather(
                    service.query_spec(FloodSpec(graph, [0], variant=loss)),
                    service.query_spec(FloodSpec(graph, [0], variant=memory)),
                    service.query_spec(FloodSpec(graph, [0])),
                )

        lossy_run, memory_run, plain = run(main())
        assert_same_run(sweep(graph, [[0]], variant=loss)[0], lossy_run)
        assert_same_run(sweep(graph, [[0]], variant=memory)[0], memory_run)
        assert plain.variant is None
        # Even cycle: the two wavefronts meet and cancel after n/2 rounds.
        assert plain.terminated and plain.termination_round == 6


class TestVariantRouting:
    @pytest.mark.skipif(not HAS_NUMPY, reason="needs numpy")
    def test_stochastic_never_follows_a_pinned_engine(self):
        # The deterministic request names numpy and gets it; the
        # stochastic variant on the same topology with backend=None
        # must still land on the pure stepper.
        graph = cycle_graph(64)

        async def main():
            async with FloodService(workers=0) as service:
                deterministic = await service.query_spec(
                    FloodSpec(graph, [0], backend="numpy")
                )
                stochastic = await service.query_spec(
                    FloodSpec(graph, [0], variant=bernoulli_loss(0.2, seed=1))
                )
                return deterministic, stochastic, dict(service.stats.backends)

        deterministic, stochastic, backends = run(main())
        assert deterministic.backend == "numpy"
        assert stochastic.backend == "pure"
        assert backends.get("pure") == 1

    def test_explicit_oracle_with_variant_raises_before_admission(self):
        graph = cycle_graph(8)

        async def main():
            async with FloodService(workers=0) as service:
                with pytest.raises(ConfigurationError):
                    await service.query_spec(
                        FloodSpec(graph, [0], variant=thinning(0.5), backend="oracle")
                    )
                with pytest.raises(ConfigurationError):
                    await service.query_spec(
                        FloodSpec(graph, [0], variant=k_memory(1), backend="numpy")
                    )
                assert service.pending == 0

        run(main())

    def test_kmemory_routes_pure_even_on_long_floods(self):
        graph = cycle_graph(48)

        async def main():
            async with FloodService(workers=0) as service:
                return await service.query_spec(
                    FloodSpec(graph, [0], variant=k_memory(1))
                )

        assert run(main()).backend == "pure"
