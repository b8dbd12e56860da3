"""Micro-batching: coalesce concurrent single queries into pool batches.

The sweep pool is a batch engine -- its unit of dispatch is a chunk of
source-id lists -- while service callers arrive one ``await query()``
at a time.  The :class:`MicroBatcher` bridges the two shapes: requests
that share a batch key -- for the flood service, the graph entry plus
the request spec's :class:`~repro.api.spec.BatchKey`, i.e. everything
that changes how the pool must run them -- accumulate in a bucket, and
the bucket flushes adaptively (the Nagle trade-off):

* **idle** -- no dispatched batch is in flight when the bucket opens:
  it flushes on the next event-loop iteration, which still coalesces
  everything submitted in the current tick (e.g. one ``asyncio.gather``
  of queries) but never makes a lone request wait out the window;
* **busy** -- a batch is in flight: the bucket flushes at the earlier
  of the **batching window** (``window`` seconds after its first
  request; ``window=0`` means the next iteration) and the moment the
  in-flight batches drain, so requests that arrive while the execution
  lane is occupied ride one batch instead of queueing one by one;
* either way, a bucket that reaches **max_batch** requests flushes at
  once.

The owner reports in-flight batches with :meth:`MicroBatcher.started`
and :meth:`MicroBatcher.finished` -- every batch it dispatches, whether
it came from a bucket or not -- so ``window`` keeps one meaning: the
longest a request waits under contention.

The batcher never reorders requests within a bucket (arrival order is
batch order) and never merges across keys, so each request's result is
exactly what a serial sweep of its own source set would produce --
batching changes scheduling, never content.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Hashable, List


class MicroBatcher:
    """Key-bucketed request coalescing with an adaptive flush policy.

    ``dispatch(key, requests)`` is invoked on the event loop exactly
    once per flush with a non-empty, arrival-ordered request list; the
    batcher does not know what a request *is* beyond appending it, so
    the service stays the single owner of request semantics.
    """

    def __init__(
        self,
        window: float,
        max_batch: int,
        dispatch: Callable[[Hashable, List[Any]], None],
    ) -> None:
        if window < 0:
            raise ValueError("window must be >= 0 seconds")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.window = window
        self.max_batch = max_batch
        self._dispatch = dispatch
        self._buckets: Dict[Hashable, List[Any]] = {}
        self._timers: Dict[Hashable, asyncio.Handle] = {}
        self._in_flight = 0

    def add(self, key: Hashable, request: Any) -> None:
        """Queue one request; may flush its bucket synchronously on size."""
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = []
            loop = asyncio.get_running_loop()
            if self._in_flight and self.window > 0:
                timer = loop.call_later(self.window, self._flush, key)
            else:
                timer = loop.call_soon(self._flush, key)
            self._timers[key] = timer
        bucket.append(request)
        if len(bucket) >= self.max_batch:
            self._flush(key)

    def started(self) -> None:
        """Count one dispatched batch as in flight."""
        self._in_flight += 1

    def finished(self) -> None:
        """Settle one in-flight batch; the last one flushes held buckets."""
        self._in_flight -= 1
        if not self._in_flight:
            self.flush_all()

    def _flush(self, key: Hashable) -> None:
        requests = self._buckets.pop(key, None)
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        if requests:
            self._dispatch(key, requests)

    def flush_all(self) -> None:
        """Flush every open bucket now (on drain and at service shutdown)."""
        for key in list(self._buckets):
            self._flush(key)

    @property
    def pending(self) -> int:
        """Requests currently waiting in open buckets."""
        return sum(len(bucket) for bucket in self._buckets.values())
