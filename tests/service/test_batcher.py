"""MicroBatcher unit behaviour: adaptive flush, size cap, key separation."""

from __future__ import annotations

import asyncio

import pytest

from repro.service import MicroBatcher


def run_batcher(window, max_batch, scenario):
    """Drive a batcher inside a fresh loop; returns dispatched batches."""
    dispatched = []

    async def main():
        batcher = MicroBatcher(
            window, max_batch, lambda key, reqs: dispatched.append((key, reqs))
        )
        await scenario(batcher)
        return batcher

    batcher = asyncio.run(main())
    return dispatched, batcher


class TestFlushPolicy:
    def test_same_tick_requests_coalesce(self):
        async def scenario(batcher):
            for i in range(5):
                batcher.add("k", i)
            assert batcher.pending == 5
            await asyncio.sleep(0)  # zero-window flush on next tick

        dispatched, batcher = run_batcher(0.0, 64, scenario)
        assert dispatched == [("k", [0, 1, 2, 3, 4])]
        assert batcher.pending == 0

    def test_size_cap_flushes_early(self):
        async def scenario(batcher):
            for i in range(7):
                batcher.add("k", i)
            # cap of 3: two full batches flushed synchronously, one open
            assert batcher.pending == 1
            await asyncio.sleep(0)

        dispatched, _ = run_batcher(0.0, 3, scenario)
        assert [reqs for _, reqs in dispatched] == [[0, 1, 2], [3, 4, 5], [6]]

    def test_window_groups_across_ticks(self):
        async def scenario(batcher):
            batcher.started()  # busy: the bucket waits for the window
            batcher.add("k", "a")
            await asyncio.sleep(0.005)
            batcher.add("k", "b")  # still inside the 50ms window
            await asyncio.sleep(0.08)  # window elapses

        dispatched, _ = run_batcher(0.05, 64, scenario)
        assert dispatched == [("k", ["a", "b"])]

    def test_keys_never_merge(self):
        async def scenario(batcher):
            batcher.add("a", 1)
            batcher.add("b", 2)
            batcher.add("a", 3)
            await asyncio.sleep(0)

        dispatched, _ = run_batcher(0.0, 64, scenario)
        assert ("a", [1, 3]) in dispatched
        assert ("b", [2]) in dispatched

    def test_flush_all_drains_open_buckets(self):
        async def scenario(batcher):
            batcher.add("a", 1)
            batcher.add("b", 2)
            batcher.flush_all()
            assert batcher.pending == 0
            await asyncio.sleep(0)  # cancelled timers must not re-fire

        dispatched, _ = run_batcher(10.0, 64, scenario)
        assert sorted(dispatched) == [("a", [1]), ("b", [2])]


def recording_batcher(window, max_batch=64):
    """A batcher whose dispatches land in the returned list."""
    dispatched = []
    batcher = MicroBatcher(
        window, max_batch, lambda key, reqs: dispatched.append((key, reqs))
    )
    return batcher, dispatched


class TestAdaptivePolicy:
    """Idle buckets flush on the next tick; busy ones at drain or window."""

    def test_idle_bucket_flushes_next_tick_despite_window(self):
        batcher, dispatched = recording_batcher(10.0)

        async def main():
            batcher.add("k", "a")
            assert dispatched == []
            await asyncio.sleep(0)
            assert dispatched == [("k", ["a"])]

        asyncio.run(main())
        assert batcher.pending == 0 and not batcher._timers

    def test_busy_bucket_is_held_until_the_drain(self):
        batcher, dispatched = recording_batcher(10.0)

        async def main():
            batcher.started()
            batcher.add("k", "a")
            await asyncio.sleep(0.02)
            assert dispatched == []  # in flight: no next-tick flush
            batcher.add("k", "b")
            batcher.finished()  # the drain flushes synchronously
            assert dispatched == [("k", ["a", "b"])]
            assert not batcher._timers

        asyncio.run(main())
        assert batcher._in_flight == 0

    def test_slow_drain_flushes_at_the_window(self):
        batcher, dispatched = recording_batcher(0.02)

        async def main():
            batcher.started()
            batcher.add("k", "a")
            await asyncio.sleep(0)
            assert dispatched == []
            await asyncio.sleep(0.1)  # window elapses, batch still running
            assert dispatched == [("k", ["a"])]
            batcher.finished()  # nothing left to flush on the drain

        asyncio.run(main())
        assert dispatched == [("k", ["a"])]

    def test_same_tick_adds_coalesce_when_idle(self):
        batcher, dispatched = recording_batcher(10.0)

        async def main():
            for i in range(5):
                batcher.add("k", i)
            await asyncio.sleep(0)

        asyncio.run(main())
        assert dispatched == [("k", [0, 1, 2, 3, 4])]

    def test_flush_all_leaves_no_live_timer(self):
        batcher, dispatched = recording_batcher(10.0)

        async def main():
            batcher.add("idle", 1)  # next-tick handle
            batcher.started()
            batcher.add("busy", 2)  # window timer
            handles = list(batcher._timers.values())
            assert len(handles) == 2
            batcher.flush_all()
            assert not batcher._timers
            assert all(handle.cancelled() for handle in handles)
            await asyncio.sleep(0)
            batcher.finished()

        asyncio.run(main())
        assert sorted(dispatched) == [("busy", [2]), ("idle", [1])]


class TestValidation:
    def test_bad_window(self):
        with pytest.raises(ValueError):
            MicroBatcher(-1.0, 4, lambda k, r: None)

    def test_bad_max_batch(self):
        with pytest.raises(ValueError):
            MicroBatcher(0.0, 0, lambda k, r: None)
