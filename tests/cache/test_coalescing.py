"""Service-wide in-flight coalescing: K identical specs, one execution.

PR 5's micro-batcher already merged identical concurrent specs into
one *dispatch*; the digest-keyed future table generalises that to one
*execution* whose encoded result every joiner decodes privately.  The
properties pinned here: exactly-once execution, bit-identical private
results for every joiner, correct counter attribution, failure and
cancellation propagation, and the bypass escape hatch.
"""

import asyncio

import pytest

from repro.api import FloodSpec, ResultCache
from repro.fastpath import sweep_specs
from repro.graphs import cycle_graph
from repro.service import FloodService, QueueFull, ServiceClosed

GRAPH = cycle_graph(41)


def spec_for(*sources, **kwargs) -> FloodSpec:
    return FloodSpec(graph=GRAPH, sources=tuple(sources), **kwargs)


def run_fields(run):
    """Every field of an IndexedRun a caller can observe."""
    return (
        run.sources,
        run.backend,
        run.terminated,
        run.termination_round,
        run.total_messages,
        run.round_edge_counts,
        run.sender_ids,
        run.receive_rounds_by_id,
    )


def submit(service, entry_point, spec):
    """One spec through ``query_spec``, or as a one-spec batch."""
    if entry_point == "query_spec":
        return service.query_spec(spec)
    return service.query_batch_specs([spec])


ENTRY_POINTS = ["query_spec", "query_batch_specs"]


class TestExactlyOnce:
    def test_concurrent_identical_specs_execute_once(self):
        async def main():
            cache = ResultCache()
            async with FloodService(workers=0, cache=cache) as service:
                runs = await asyncio.gather(
                    *(service.query_spec(spec_for(3)) for _ in range(8))
                )
                return runs, service.stats, cache.stats()

        runs, stats, cache_stats = asyncio.run(main())
        assert stats.batched_requests == 1  # one execution for 8 callers
        assert stats.cache_misses == 1
        assert stats.cache_coalesced == 7
        assert cache_stats.coalesced == 7
        assert cache_stats.stores == 1
        reference = runs[0]
        for run in runs[1:]:
            assert run.round_edge_counts == reference.round_edge_counts
            assert run.total_messages == reference.total_messages
            # Private copies: no caller can poison another's result.
            assert run.round_edge_counts is not reference.round_edge_counts

    def test_distinct_specs_do_not_coalesce(self):
        async def main():
            async with FloodService(
                workers=0, cache=ResultCache()
            ) as service:
                await asyncio.gather(
                    *(service.query_spec(spec_for(v)) for v in range(5))
                )
                return service.stats

        stats = asyncio.run(main())
        assert stats.cache_coalesced == 0
        assert stats.cache_misses == 5
        assert stats.batched_requests == 5

    def test_batch_positions_join_inflight_singles(self):
        async def main():
            async with FloodService(
                workers=0, cache=ResultCache(), batch_window=0.05
            ) as service:
                single = asyncio.ensure_future(
                    service.query_spec(spec_for(3))
                )
                await asyncio.sleep(0)  # leader registers synchronously
                batch = await service.query_batch_specs(
                    [spec_for(3), spec_for(9)]
                )
                lone = await single
                return lone, batch, service.stats

        lone, batch, stats = asyncio.run(main())
        assert batch[0].round_edge_counts == lone.round_edge_counts
        assert stats.cache_coalesced == 1  # the batch's position 0
        assert stats.batched_requests == 2  # sources (3,) once, (9,) once

    @pytest.mark.parametrize(
        "specs, executions, stores",
        [
            ([spec_for(3), spec_for(5), spec_for(3), spec_for(3)], 2, 2),
            # Refresh duplicates: one execution, one store.
            ([spec_for(3, cache="refresh"), spec_for(3, cache="refresh")], 1, 1),
            # Mixed policies: refresh and use positions ride one leader
            # per key; the bypass position executes alone, unstored.
            (
                [
                    spec_for(3),
                    spec_for(3, cache="refresh"),
                    spec_for(3, cache="bypass"),
                    spec_for(5, cache="refresh"),
                    spec_for(5),
                ],
                3,
                2,
            ),
        ],
        ids=["use", "refresh", "mixed"],
    )
    def test_in_batch_duplicates_execute_once(self, specs, executions, stores):
        async def main():
            cache = ResultCache()
            async with FloodService(workers=0, cache=cache) as service:
                runs = await service.query_batch_specs(specs)
                return runs, service.stats, cache.stats()

        runs, stats, cache_stats = asyncio.run(main())
        assert stats.batched_requests == executions
        assert stats.cache_coalesced == len(specs) - executions
        assert cache_stats.stores == stores
        for spec, run in zip(specs, runs):
            assert run_fields(run) == run_fields(sweep_specs([spec])[0])
        # Private copies: no position shares another's lists.
        assert len({id(run.round_edge_counts) for run in runs}) == len(runs)


class TestSecondWaveHitsTheCache:
    def test_after_the_flight_lands_queries_are_hits(self):
        async def main():
            async with FloodService(
                workers=0, cache=ResultCache()
            ) as service:
                await service.query_spec(spec_for(3))
                await asyncio.gather(
                    *(service.query_spec(spec_for(3)) for _ in range(4))
                )
                return service.stats

        stats = asyncio.run(main())
        assert stats.cache_hits == 4
        assert stats.cache_coalesced == 0  # nothing was in flight anymore
        assert stats.batched_requests == 1


class TestEscapeHatches:
    def test_bypass_neither_joins_nor_stores(self):
        async def main():
            cache = ResultCache()
            async with FloodService(workers=0, cache=cache) as service:
                await asyncio.gather(
                    *(
                        service.query_spec(spec_for(3, cache="bypass"))
                        for _ in range(4)
                    )
                )
                return service.stats, cache.stats()

        stats, cache_stats = asyncio.run(main())
        assert stats.cache_hits == 0
        assert stats.cache_misses == 0
        assert stats.cache_coalesced == 0
        assert cache_stats.stores == 0
        # The micro-batcher still merges them into one dispatch -- the
        # pre-cache behaviour, untouched.
        assert stats.largest_batch == 4

    def test_refresh_re_executes_and_overwrites(self):
        async def main():
            cache = ResultCache()
            async with FloodService(workers=0, cache=cache) as service:
                await service.query_spec(spec_for(3))
                await service.query_spec(spec_for(3, cache="refresh"))
                hit = await service.query_spec(spec_for(3))
                return service.stats, cache.stats(), hit

        stats, cache_stats, hit = asyncio.run(main())
        assert stats.cache_misses == 2  # initial + refresh
        assert stats.cache_hits == 1
        assert cache_stats.stores == 2
        assert hit.terminated


class TestFailureAndCancellation:
    def test_joiners_inherit_the_leaders_failure(self, held_lane):
        async def main():
            async with FloodService(
                workers=0, cache=ResultCache(), batch_window=0.05
            ) as service:
                bad = spec_for(3, max_rounds=5)  # C41 needs 21 rounds

                # NonTermination is not an error (cut-off runs return),
                # so force a failure through a poisoned admission gate
                # instead: leader admitted, then the pool dispatch dies.
                class Boom(RuntimeError):
                    pass

                def exploding_dispatch(key, requests):
                    service._resolve(key[0], requests, None, Boom("dead"))

                # A batch held in the lane keeps the service busy, so
                # the leader's bucket stays open instead of flushing.
                blocker = asyncio.ensure_future(service.query_spec(spec_for(7)))
                await asyncio.sleep(0)
                leader = asyncio.ensure_future(service.query_spec(bad))
                await asyncio.sleep(0)
                follower = asyncio.ensure_future(service.query_spec(bad))
                await asyncio.sleep(0)
                assert service.stats.cache_coalesced == 1
                # Swap the dispatch under the pending bucket and flush.
                service._batcher._dispatch = exploding_dispatch
                service._batcher.flush_all()
                outcomes = await asyncio.gather(
                    leader, follower, return_exceptions=True
                )
                held_lane.set()
                await blocker
                return outcomes, Boom

        outcomes, boom = asyncio.run(main())
        assert all(isinstance(outcome, boom) for outcome in outcomes)

    def test_cancelled_leader_still_feeds_followers_and_the_cache(
        self, held_lane
    ):
        async def main():
            cache = ResultCache()
            async with FloodService(
                workers=0, cache=cache, batch_window=0.05
            ) as service:
                # A batch held in the lane keeps the service busy, so
                # the leader is cancelled while still bucketed.
                blocker = asyncio.ensure_future(
                    service.query_spec(spec_for(7, cache="bypass"))
                )
                await asyncio.sleep(0)
                leader = asyncio.ensure_future(service.query_spec(spec_for(3)))
                await asyncio.sleep(0)  # leader registered in-flight
                follower = asyncio.ensure_future(
                    service.query_spec(spec_for(3))
                )
                await asyncio.sleep(0)
                assert service._batcher.pending == 1
                leader.cancel()
                await asyncio.sleep(0)
                held_lane.set()
                await blocker
                run = await follower
                with pytest.raises(asyncio.CancelledError):
                    await leader
                return run, cache.stats()

        run, cache_stats = asyncio.run(main())
        assert run.terminated
        assert cache_stats.stores == 1  # the work still landed


class FailingStore:
    """A persistent tier whose every write fails like a full disk."""

    def load(self, key):
        return None

    def save(self, key, blob):
        raise OSError("no space left on the store")

    def delete(self, key):
        pass


class TestStoreFailure:
    @pytest.mark.parametrize(
        "sources",
        [((3,), (3,)), ((3,), (5,))],
        ids=["leader-and-joiner", "two-leaders"],
    )
    def test_failed_store_write_fails_the_requests_and_frees_the_slots(
        self, sources
    ):
        async def main():
            cache = ResultCache(store=FailingStore())
            async with FloodService(workers=0, cache=cache) as service:
                outcomes = await asyncio.wait_for(
                    asyncio.gather(
                        *(service.query_spec(spec_for(*s)) for s in sources),
                        return_exceptions=True,
                    ),
                    5,
                )
                return outcomes, service.pending, dict(service._inflight_results)

        outcomes, pending, inflight = asyncio.run(main())
        assert all(isinstance(outcome, OSError) for outcome in outcomes)
        assert pending == 0
        assert inflight == {}

    def test_failed_store_write_leaves_no_entry_to_hit(self):
        class FailsOnce(FailingStore):
            failed = False

            def save(self, key, blob):
                if not self.failed:
                    self.failed = True
                    super().save(key, blob)

        async def main():
            cache = ResultCache(store=FailsOnce())
            async with FloodService(workers=0, cache=cache) as service:
                with pytest.raises(OSError):
                    await service.query_spec(spec_for(3))
                run = await service.query_spec(spec_for(3))
                return run, service.stats, cache.stats()

        run, stats, cache_stats = asyncio.run(main())
        assert run_fields(run) == run_fields(sweep_specs([spec_for(3)])[0])
        assert stats.cache_hits == 0  # the second query executed again
        assert cache_stats.stores == 1


class TestAdmissionFailure:
    @pytest.mark.parametrize("entry_point", ENTRY_POINTS)
    def test_rejected_leader_counts_only_the_rejection(
        self, held_lane, entry_point
    ):
        async def main():
            async with FloodService(
                workers=0, cache=ResultCache(), max_pending=1
            ) as service:
                # A held blocker keeps the one admission slot taken.
                blocker = asyncio.ensure_future(
                    service.query_spec(spec_for(7, cache="bypass"))
                )
                await asyncio.sleep(0)
                with pytest.raises(QueueFull):
                    await submit(service, entry_point, spec_for(3))
                held_lane.set()
                await blocker
                return service.stats

        stats = asyncio.run(main())
        assert stats.rejected == 1
        assert stats.queries == 1  # the blocker alone
        assert stats.cache_misses == 0  # the rejected leader never ran

    @pytest.mark.parametrize("entry_point", ENTRY_POINTS)
    def test_leader_failing_admission_fails_its_joiners(
        self, held_lane, entry_point
    ):
        async def main():
            async with FloodService(
                workers=0, cache=ResultCache(), max_pending=1, on_full="wait"
            ) as service:
                blocker = asyncio.ensure_future(
                    service.query_spec(spec_for(7, cache="bypass"))
                )
                await asyncio.sleep(0)
                leader = asyncio.ensure_future(
                    submit(service, entry_point, spec_for(3))
                )
                await asyncio.sleep(0)
                assert service.stats.waited == 1  # leader at the gate
                joiner = asyncio.ensure_future(service.query_spec(spec_for(3)))
                await asyncio.sleep(0)
                assert service.stats.cache_coalesced == 1
                # close() fails the gate's waiter; the joiner must fail
                # with it rather than await a future nobody settles.
                closing = asyncio.ensure_future(service.close())
                outcomes = await asyncio.wait_for(
                    asyncio.gather(leader, joiner, return_exceptions=True), 5
                )
                inflight = dict(service._inflight_results)
                held_lane.set()
                await closing
                await blocker
                return outcomes, inflight

        outcomes, inflight = asyncio.run(main())
        assert all(isinstance(outcome, ServiceClosed) for outcome in outcomes)
        assert inflight == {}


class TestUncachedServiceUnchanged:
    def test_without_a_cache_identical_specs_share_a_batch_not_a_run(self):
        async def main():
            async with FloodService(workers=0) as service:
                runs = await asyncio.gather(
                    *(service.query_spec(spec_for(3)) for _ in range(6))
                )
                return runs, service.stats

        runs, stats = asyncio.run(main())
        assert stats.queries == 6
        assert stats.largest_batch == 6  # the PR 5 contract, untouched
        assert stats.cache_hits == stats.cache_misses == 0
        assert stats.cache_coalesced == 0
        assert service_results_equal(runs)


def service_results_equal(runs) -> bool:
    head = runs[0]
    return all(
        run.round_edge_counts == head.round_edge_counts
        and run.total_messages == head.total_messages
        for run in runs
    )
