"""Eviction and cancellation edge cases (code-review regressions).

Two bugs these tests pin down:

* LRU eviction used to close a graph's pool while admitted requests
  for it still sat in a micro-batch bucket, failing them with a raw
  ``ValueError('Pool not running')`` -- eviction must wait for the
  topology's outstanding requests to drain;
* a wait-mode admission whose caller was cancelled *after* the gate
  granted its slots leaked those slots forever, shrinking service
  capacity until every query starved.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import FloodSpec
from repro.graphs import cycle_graph, erdos_renyi
from repro.service import FloodService
from repro.service.service import _AdmissionGate


class TestEvictionSafety:
    def test_evicted_entry_with_bucketed_request_still_answers(self):
        """query(g1) sits in a 200ms bucket; registering g2 evicts g1;
        the bucketed request must still resolve with its result."""

        async def run():
            g1 = cycle_graph(11)
            g2 = cycle_graph(13)
            async with FloodService(
                workers=1, max_graphs=1, batch_window=0.2
            ) as service:
                service.register(g1)
                # A batch counted in flight makes the bucket wait out
                # its window instead of flushing on the next tick.
                service._batcher.started()
                task = asyncio.ensure_future(
                    service.query_spec(FloodSpec(g1, [0], backend="pure"))
                )
                await asyncio.sleep(0.02)  # admitted, bucketed, not flushed
                assert service._batcher.pending == 1
                service.register(g2)  # evicts g1 (LRU size 1)
                run1 = await task
                service._batcher.finished()
                run2 = await service.query_spec(FloodSpec(g2, [0], backend="pure"))
                return run1, run2

        run1, run2 = asyncio.run(run())
        assert run1.termination_round == 11
        assert run2.termination_round == 13

    def test_eviction_churn_under_concurrent_queries(self):
        """Constant eviction (max_graphs=1, three topologies in flight)
        must never fail or wedge a query."""

        graphs = [cycle_graph(n) for n in (9, 11, 13)]

        async def run():
            async with FloodService(
                workers=1, max_graphs=1, batch_window=0.01
            ) as service:
                tasks = [
                    service.query_spec(FloodSpec(graphs[i % 3], [0], backend="pure"))
                    for i in range(12)
                ]
                return await asyncio.gather(*tasks)

        results = asyncio.run(run())
        assert [r.termination_round for r in results] == [
            (9, 11, 13)[i % 3] for i in range(12)
        ]

    def test_auto_registration_does_not_block_other_callers(self):
        """While an unseen graph's pool warms off-loop, queries on an
        already-warm topology keep completing."""

        warm = erdos_renyi(40, 0.15, seed=2, connected=True)
        cold = erdos_renyi(60, 0.1, seed=3, connected=True)

        async def run():
            async with FloodService(workers=1, batch_window=0.0) as service:
                service.register(warm)
                cold_task = asyncio.ensure_future(
                    service.query_spec(
                        FloodSpec(cold, [cold.nodes()[0]], backend="pure")
                    )
                )
                # These must finish even though cold's pool is forking.
                warm_runs = await asyncio.gather(
                    *(
                        service.query_spec(FloodSpec(warm, [v], backend="pure"))
                        for v in warm.nodes()[:4]
                    )
                )
                return warm_runs, await cold_task

        warm_runs, cold_run = asyncio.run(run())
        assert all(r.terminated for r in warm_runs)
        assert cold_run.terminated


class TestWarmupFailure:
    def test_transient_pool_failure_does_not_poison_the_graph(
        self, monkeypatch
    ):
        """First warm-up fails (transient fork error); the next query
        must retry construction and succeed, not re-raise the stale
        error forever."""
        graph = cycle_graph(9)

        async def run():
            async with FloodService(workers=1, batch_window=0.0) as service:
                original = service._build_pool
                blown = []

                def flaky(g):
                    if not blown:
                        blown.append(True)
                        raise OSError("transient fork failure")
                    return original(g)

                monkeypatch.setattr(service, "_build_pool", flaky)
                with pytest.raises(OSError):
                    await service.query_spec(FloodSpec(graph, [0], backend="pure"))
                run = await service.query_spec(FloodSpec(graph, [0], backend="pure"))
                assert service.pending == 0
                return run

        assert asyncio.run(run()).termination_round == 9


class TestCloseRaces:
    def test_admission_after_close_is_typed(self):
        """A caller that re-awakens after close() must get
        ServiceClosed from admission, not a raw closed-pool error."""
        from repro.service import ServiceClosed

        graph = cycle_graph(9)

        async def run():
            service = FloodService(workers=0)
            async with service:
                await service.query_spec(FloodSpec(graph, [0]))
            with pytest.raises(ServiceClosed):
                await service._admit(1, None)

        asyncio.run(run())


class TestGateSlotAccounting:
    def test_cancelled_waiter_after_grant_returns_slots(self):
        """release() grants a waiter, the waiter's task is cancelled
        before resuming: the granted slots must flow back."""

        async def run():
            gate = _AdmissionGate(1)
            assert gate.try_acquire(1)

            waiter = asyncio.ensure_future(gate.acquire(1))
            await asyncio.sleep(0)  # waiter enqueues
            gate.release(1)  # grants the waiter: used stays 1
            assert gate.used == 1
            waiter.cancel()  # cancellation races the grant
            with pytest.raises(asyncio.CancelledError):
                await waiter
            return gate.used

        assert asyncio.run(run()) == 0

    def test_cancelled_waiter_leaves_no_corpse_in_queue(self):
        """A waiter cancelled before its grant must vanish from the
        queue: try_acquire refuses while any waiter is enqueued, so a
        dead entry would fake QueueFull despite available capacity."""

        async def run():
            gate = _AdmissionGate(10)
            assert gate.try_acquire(8)
            big = asyncio.ensure_future(gate.acquire(5))  # must wait
            await asyncio.sleep(0)
            big.cancel()
            await asyncio.gather(big, return_exceptions=True)
            # No release() happened; capacity for 1 exists and the
            # corpse must not block it.
            return gate.try_acquire(1)

        assert asyncio.run(run()) is True

    def test_timeout_cancelled_queries_never_shrink_capacity(self, held_lane):
        """End-to-end form: repeatedly cancel wait-mode queries; the
        service must keep serving at full capacity afterwards."""

        graph = erdos_renyi(50, 0.12, seed=5, connected=True)

        async def run():
            async with FloodService(
                workers=0, max_pending=2, batch_window=0.05, on_full="wait"
            ) as service:
                service.register(graph)
                for _ in range(3):
                    held_lane.clear()  # the fillers' batch holds both slots
                    fillers = [
                        asyncio.ensure_future(service.query_spec(FloodSpec(graph, [v])))
                        for v in graph.nodes()[:2]
                    ]
                    await asyncio.sleep(0.005)
                    victim = asyncio.ensure_future(
                        service.query_spec(FloodSpec(graph, [graph.nodes()[3]]))
                    )
                    await asyncio.sleep(0.005)
                    victim.cancel()
                    await asyncio.gather(victim, return_exceptions=True)
                    held_lane.set()
                    await asyncio.gather(*fillers)
                assert service.pending == 0
                assert service.stats.waited == 3  # every victim queued
                # Full capacity still available.
                runs = await asyncio.gather(
                    *(
                        service.query_spec(FloodSpec(graph, [v]))
                        for v in graph.nodes()[:2]
                    )
                )
                return runs

        assert all(r.terminated for r in asyncio.run(run()))
