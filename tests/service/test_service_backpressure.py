"""Backpressure, budgets-of-admission, timeouts and lifecycle.

The service's load-shedding contract: admitted-but-unfinished requests
are bounded by ``max_pending``; beyond the bound a caller either gets
a typed :class:`QueueFull` immediately (``on_full="raise"``) or waits
FIFO for slots (``on_full="wait"``) -- per service default or per
call.  Timeouts abandon the *wait*, never the work, and a closed
service refuses new queries with :class:`ServiceClosed`.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import FloodSpec
from repro.errors import ConfigurationError, ReproError
from repro.graphs import erdos_renyi
from repro.service import (
    FloodService,
    QueryTimeout,
    QueueFull,
    ServiceClosed,
    ServiceError,
)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(60, 0.1, seed=7, connected=True)


def fill_service(service, graph, count):
    """Admit ``count`` queries; with ``held_lane`` they stay admitted."""
    nodes = graph.nodes()
    return [
        asyncio.ensure_future(
            service.query_spec(FloodSpec(graph, [nodes[i % len(nodes)]]))
        )
        for i in range(count)
    ]


class TestQueueFull:
    def test_raise_mode_rejects_when_full(self, graph, held_lane):
        async def run():
            async with FloodService(
                workers=0, max_pending=4, batch_window=0.2, on_full="raise"
            ) as service:
                service.register(graph)
                tasks = fill_service(service, graph, 4)
                await asyncio.sleep(0.01)  # admissions happen
                assert service.pending == 4
                with pytest.raises(QueueFull) as excinfo:
                    await service.query_spec(FloodSpec(graph, [graph.nodes()[0]]))
                assert excinfo.value.limit == 4
                assert excinfo.value.requested == 1
                held_lane.set()
                results = await asyncio.gather(*tasks)
                assert service.pending == 0
                assert service.stats.rejected == 1
                return results

        assert len(asyncio.run(run())) == 4

    def test_wait_mode_completes_everything(self, graph):
        async def run():
            async with FloodService(
                workers=0, max_pending=3, batch_window=0.02, on_full="wait"
            ) as service:
                runs = await asyncio.gather(
                    *(
                        service.query_spec(FloodSpec(graph, [v]))
                        for v in graph.nodes()[:9]
                    )
                )
                assert service.stats.waited > 0
                return runs

        runs = asyncio.run(run())
        assert len(runs) == 9
        assert all(run.terminated for run in runs)

    def test_per_call_override_beats_service_default(self, graph, held_lane):
        async def run():
            async with FloodService(
                workers=0, max_pending=2, batch_window=0.1, on_full="raise"
            ) as service:
                tasks = fill_service(service, graph, 2)
                await asyncio.sleep(0.01)
                # The override waits even though the default raises.
                extra = asyncio.ensure_future(
                    service.query_spec(
                        FloodSpec(graph, [graph.nodes()[5]]), on_full="wait"
                    )
                )
                await asyncio.sleep(0.01)
                assert service.stats.waited == 1
                held_lane.set()
                await asyncio.gather(*tasks)
                return await extra

        assert asyncio.run(run()).terminated

    def test_oversized_batch_always_rejected(self, graph):
        """A batch larger than the whole queue can never be admitted;
        waiting would deadlock, so both modes raise."""

        async def run(mode):
            async with FloodService(workers=0, max_pending=3) as service:
                sets = [[v] for v in graph.nodes()[:5]]
                with pytest.raises(QueueFull) as excinfo:
                    await service.query_batch_specs(
                        [FloodSpec(graph, s) for s in sets], on_full=mode
                    )
                assert excinfo.value.requested == 5

        asyncio.run(run("raise"))
        asyncio.run(run("wait"))

    def test_bad_on_full_value(self, graph):
        async def run():
            async with FloodService(workers=0) as service:
                with pytest.raises(ConfigurationError):
                    await service.query_spec(
                        FloodSpec(graph, [graph.nodes()[0]]), on_full="retry"
                    )

        asyncio.run(run())


class TestTimeouts:
    def test_timeout_raises_typed_error(self, graph, held_lane):
        async def run():
            async with FloodService(workers=0, batch_window=0.5) as service:
                service.register(graph)
                with pytest.raises(QueryTimeout) as excinfo:
                    await service.query_spec(
                        FloodSpec(graph, [graph.nodes()[0]]), timeout=0.01
                    )
                assert excinfo.value.seconds == 0.01
                assert service.stats.timeouts == 1
                # The abandoned flood still drains and frees its slot.
                held_lane.set()
                await asyncio.sleep(0.6)
                assert service.pending == 0

        asyncio.run(run())

    def test_default_timeout_applies(self, graph, held_lane):
        async def run():
            async with FloodService(
                workers=0, batch_window=0.5, default_timeout=0.01
            ) as service:
                with pytest.raises(QueryTimeout):
                    await service.query_spec(FloodSpec(graph, [graph.nodes()[0]]))
                held_lane.set()
                await asyncio.sleep(0.6)

        asyncio.run(run())

    def test_per_call_none_disables_default(self, graph, held_lane):
        async def run():
            async with FloodService(
                workers=0, batch_window=0.01, default_timeout=0.001
            ) as service:
                # The held lane makes the query outlast the default.
                query = asyncio.ensure_future(
                    service.query_spec(
                        FloodSpec(graph, [graph.nodes()[0]]), timeout=None
                    )
                )
                await asyncio.sleep(0.02)
                held_lane.set()
                return await query

        assert asyncio.run(run()).terminated


class TestLifecycle:
    def test_closed_service_refuses_queries(self, graph):
        async def run():
            service = FloodService(workers=0)
            async with service:
                await service.query_spec(FloodSpec(graph, [graph.nodes()[0]]))
            with pytest.raises(ServiceClosed):
                await service.query_spec(FloodSpec(graph, [graph.nodes()[0]]))
            with pytest.raises(ServiceClosed):
                service.register(graph)

        asyncio.run(run())

    def test_close_drains_open_buckets(self, graph, held_lane):
        """Requests still sitting in a batching window complete on
        close instead of hanging."""

        async def run():
            service = FloodService(workers=0, batch_window=5.0)
            blocker = asyncio.ensure_future(
                service.query_spec(FloodSpec(graph, [graph.nodes()[1]]))
            )
            await asyncio.sleep(0.01)  # the blocker's batch holds the lane
            task = asyncio.ensure_future(
                service.query_spec(FloodSpec(graph, [graph.nodes()[0]]))
            )
            await asyncio.sleep(0.01)  # bucketed behind it for the window
            assert service._batcher.pending == 1
            closing = asyncio.ensure_future(service.close())
            await asyncio.sleep(0)
            # close() flushed the bucket itself, not the drain.
            assert service._batcher.pending == 0
            held_lane.set()
            await closing
            await blocker
            return await task

        assert asyncio.run(run()).terminated

    def test_close_is_idempotent(self, graph):
        async def run():
            service = FloodService(workers=0)
            async with service:
                await service.query_spec(FloodSpec(graph, [graph.nodes()[0]]))
            await service.close()
            await service.close()

        asyncio.run(run())

    def test_service_error_hierarchy(self):
        assert issubclass(ServiceError, ReproError)
        for leaf in (QueueFull, QueryTimeout, ServiceClosed):
            assert issubclass(leaf, ServiceError)
        error = QueueFull(16, 3)
        assert error.limit == 16 and error.requested == 3
        assert "16" in str(error)
        timeout = QueryTimeout(1.5)
        assert timeout.seconds == 1.5
        assert "1.5" in str(timeout)


class TestValidation:
    def test_errors_raise_before_admission(self, graph):
        from repro.errors import NodeNotFoundError

        async def run():
            async with FloodService(workers=0) as service:
                with pytest.raises(NodeNotFoundError):
                    await service.query_spec(FloodSpec(graph, ["not-a-node"]))
                with pytest.raises(ConfigurationError):
                    await service.query_spec(
                        FloodSpec(graph, [graph.nodes()[0]], max_rounds=0)
                    )
                with pytest.raises(ConfigurationError):
                    await service.query_spec(
                        FloodSpec(graph, [graph.nodes()[0]], backend="cuda")
                    )
                assert service.pending == 0
                assert service.stats.queries == 0

        asyncio.run(run())

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            FloodService(workers=-1)
        with pytest.raises(ConfigurationError):
            FloodService(max_pending=0)
        with pytest.raises(ConfigurationError):
            FloodService(batch_window=-0.1)
        with pytest.raises(ConfigurationError):
            FloodService(max_batch=0)
        with pytest.raises(ConfigurationError):
            FloodService(max_graphs=0)
        with pytest.raises(ConfigurationError):
            FloodService(on_full="drop")
        with pytest.raises(ConfigurationError):
            FloodService(default_timeout=0)
