"""The asyncio flood-query front-end over the sharded sweep pool.

:class:`FloodService` turns the batch-shaped sweep machinery into a
low-latency query service: concurrent callers ``await
service.query_spec(spec)`` and the service coalesces their
requests into sharded batches over warm :class:`~repro.parallel.SweepPool`
workers, with bounded-queue backpressure, per-request round budgets
and timeouts, per-topology caching and backend resolution.

Dataflow (one request's life)::

    caller ──FloodSpec()───►  validated at construction (errors raise here)
    caller ──query_spec()──►  resolve backend (fastpath.resolve_backend)
                              admit: bounded pending gate ── full? ──► QueueFull
                                                                  or await slot
                              micro-batcher bucket keyed by the spec's
                              BatchKey (+ graph entry) ── window/size ──► flush
                              SweepPool.submit_batch ──chunks──► warm workers
                              (or the serial executor when workers=0)
    caller ◄──IndexedRun────  distribute batch results to request futures,
                              release admission slots

Requests are :class:`~repro.api.spec.FloodSpec` values end-to-end --
:meth:`FloodService.query_spec` for one,
:meth:`FloodService.query_batch_specs` for a caller-shaped batch -- and
the micro-batch buckets are keyed by ``(graph entry,
spec.batch_key(backend))`` -- the same frozen
:class:`~repro.api.spec.BatchKey` object the pool ships in its task
tuples, replacing the ad-hoc key tuples each layer used to maintain.

Determinism contract: the result a caller gets for a spec is
**bit-identical** to ``repro.fastpath.sweep_specs([spec])`` -- for every
worker count, batching window, and interleaving of concurrent callers.
Batching and sharding change scheduling, never content: requests keep
arrival order inside a batch, the pool streams results back in input
order, and backend resolution is a pure function of the graph and the
request, not of load.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.api.spec import BatchKey, FloodSpec
from repro.cache.keys import decode_run, encode_run, lookup_run, result_cache_key
from repro.cache.lru import CacheStats, ResultCache
from repro.errors import ConfigurationError
from repro.fastpath.engine import IndexedRun
from repro.fastpath.indexed import IndexedGraph
from repro.graphs.graph import Graph
from repro.parallel.pool import SweepPool, serial_batch_ids, worker_count
from repro.service.batcher import MicroBatcher
from repro.service.errors import QueryTimeout, QueueFull, ServiceClosed, ServiceError
from repro.service.routing import Router

RAISE = "raise"
WAIT = "wait"
_ON_FULL_MODES = (RAISE, WAIT)

_UNSET = object()


def _consume_outcome(future: "asyncio.Future") -> None:
    """Mark an abandoned future's exception as retrieved (no-op on results)."""
    if not future.cancelled():
        future.exception()

DEFAULT_BATCH_WINDOW = 0.002
"""Seconds a micro-batch bucket stays open after its first request."""

DEFAULT_MAX_BATCH = 64
"""Requests per micro-batch before it flushes early."""

DEFAULT_MAX_PENDING = 1024
"""Admitted-but-unfinished requests before backpressure engages."""

DEFAULT_MAX_GRAPHS = 8
"""Registered topologies kept warm before LRU eviction."""


@dataclass
class ServiceStats:
    """Served-traffic counters, updated live by the service.

    ``batched_requests / batches`` is the effective coalescing factor;
    ``rejected`` counts :class:`~repro.service.errors.QueueFull`
    rejections, ``waited`` the admissions that blocked on a slot, and
    ``backends`` how backend resolution actually distributed the traffic.

    The ``cache_*`` counters are all zero unless the service was built
    with a result cache: ``cache_hits`` are queries served straight
    from a stored blob (no execution, no admission slot),
    ``cache_misses`` are queries that executed and stored their result,
    and ``cache_coalesced`` are queries that attached to an identical
    in-flight execution instead of starting their own (the digest-keyed
    future table -- distinct from ``coalesced_batches``, which counts
    micro-batches that merely *shared a dispatch*).
    """

    queries: int = 0
    batches: int = 0
    batched_requests: int = 0
    largest_batch: int = 0
    coalesced_batches: int = 0
    rejected: int = 0
    waited: int = 0
    timeouts: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_coalesced: int = 0
    backends: Dict[str, int] = field(default_factory=dict)

    def mean_batch_size(self) -> float:
        """Average requests per dispatched pool batch."""
        return self.batched_requests / self.batches if self.batches else 0.0


class _AdmissionGate:
    """A FIFO counting gate: at most ``limit`` admitted slots at once.

    Unlike :class:`asyncio.Semaphore` it admits *n* slots atomically
    (a batch either fits entirely or waits entirely) and keeps strict
    arrival order among waiters, so backpressure cannot starve or
    reorder callers.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0
        self._waiters: Deque[Tuple[int, "asyncio.Future[None]"]] = deque()

    def try_acquire(self, n: int) -> bool:
        if self.used + n <= self.limit and not self._waiters:
            self.used += n
            return True
        return False

    async def acquire(self, n: int) -> None:
        if self.try_acquire(n):
            return
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[None]" = loop.create_future()
        self._waiters.append((n, future))
        try:
            await future
        except asyncio.CancelledError:
            # Leave no corpse in the queue: try_acquire refuses while
            # any waiter is enqueued, so a dead entry would cause
            # spurious QueueFull rejections until the next release().
            try:
                self._waiters.remove((n, future))
            except ValueError:
                pass
            # The grant may have raced the cancellation: release() has
            # already counted our slots against `used` the moment it
            # set the future, and nobody else will give them back.  (A
            # fail_all() exception is not a grant -- nothing to return.)
            if (
                future.done()
                and not future.cancelled()
                and future.exception() is None
            ):
                self.release(n)
            raise

    def release(self, n: int) -> None:
        self.used -= n
        while self._waiters:
            head_n, head_future = self._waiters[0]
            if head_future.done():  # cancelled caller: drop and move on
                self._waiters.popleft()
                continue
            if self.used + head_n > self.limit:
                break
            self._waiters.popleft()
            self.used += head_n
            head_future.set_result(None)

    def fail_all(self, exc: BaseException) -> None:
        while self._waiters:
            _, future = self._waiters.popleft()
            if not future.done():
                future.set_exception(exc)


@dataclass
class _Request:
    """One admitted query: resolved source ids and the caller's future.

    ``run_key`` is the RNG stream key of variant queries, derived per
    *request* (never from batch position) so micro-batch coalescing
    cannot move a query onto a different stream.

    Cache-leader requests additionally carry their content address and
    the in-flight ``pending`` future later identical queries join;
    ``_resolve`` settles the pending (encoding and storing the blob)
    before touching the caller's future, so a leader that times out or
    cancels still populates the cache and serves its followers.
    """

    id_list: List[int]
    future: "asyncio.Future[IndexedRun]"
    run_key: int = 0
    cache_key: Optional[str] = None
    pending: Optional["asyncio.Future[bytes]"] = None


class _GraphEntry:
    """Per-registered-topology state: the frozen index and its warm pool.

    ``outstanding`` counts this topology's admitted-but-unresolved
    requests; eviction retires the pool only once it drains to zero,
    so an LRU pop can never close workers out from under in-flight or
    still-bucketed queries.  ``pool_task`` is the (single, shared)
    off-loop pool construction when a query auto-registers the graph.
    """

    __slots__ = ("graph", "index", "pool", "pool_task", "outstanding",
                 "idle_event")

    def __init__(self, graph: Graph, index: IndexedGraph) -> None:
        self.graph = graph
        self.index = index
        self.pool: Optional[SweepPool] = None
        self.pool_task: Optional["asyncio.Task[SweepPool]"] = None
        self.outstanding = 0
        self.idle_event: Optional[asyncio.Event] = None

    def track(self, n: int) -> None:
        self.outstanding += n

    def untrack(self, n: int) -> None:
        self.outstanding -= n
        if self.outstanding <= 0 and self.idle_event is not None:
            self.idle_event.set()

    async def wait_idle(self) -> None:
        if self.outstanding <= 0:
            return
        if self.idle_event is None:
            self.idle_event = asyncio.Event()
        await self.idle_event.wait()


class FloodService:
    """Async flood-query service over warm sweep-pool workers.

    Parameters
    ----------
    workers:
        ``None`` auto-sizes to the usable cores, running **in-process
        serial** when only one core is usable (a pool cannot win
        there); ``0`` forces the serial mode; any ``n >= 1`` gives
        every registered graph a real :class:`SweepPool` of ``n`` warm
        workers.  Results are bit-identical in every mode.
    max_pending:
        Bound on admitted-but-unfinished requests across the service;
        beyond it, backpressure engages.
    batch_window / max_batch:
        Micro-batching policy -- see :class:`~repro.service.batcher.MicroBatcher`.
    max_graphs:
        Registered topologies kept warm (LRU eviction closes the
        evicted graph's pool).
    on_full:
        Default backpressure behaviour: ``"raise"`` fails fast with
        :class:`QueueFull`; ``"wait"`` queues the caller (FIFO) until
        slots free up.  Overridable per call.
    default_timeout:
        Per-request timeout in seconds applied when a call does not
        pass its own; ``None`` means wait indefinitely.
    cache:
        Optional :class:`~repro.cache.ResultCache`.  When set, queries
        whose spec allows it (``spec.cache != "bypass"``) are served
        from stored blobs when possible, joined onto identical
        in-flight executions otherwise (the digest-keyed future table:
        K concurrent identical specs execute exactly once), and stored
        after fresh execution.  Cached and coalesced results decode to
        private copies through the same rehydration funnel as fresh
        backend output, so they are bit-identical to uncached serving.
        Omitted (the default), behaviour -- including the micro-batch
        coalescing statistics -- is exactly the pre-cache service.

    Usage::

        async with FloodService(workers=4) as service:
            service.register(graph)               # optional warm-up
            run = await service.query_spec(FloodSpec(graph, (source,)))
            runs = await service.query_batch_specs(many_specs)
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        *,
        max_pending: int = DEFAULT_MAX_PENDING,
        batch_window: float = DEFAULT_BATCH_WINDOW,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_graphs: int = DEFAULT_MAX_GRAPHS,
        on_full: str = RAISE,
        default_timeout: Optional[float] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        if workers is not None and workers < 0:
            raise ConfigurationError("workers must be >= 0 (0 = serial mode)")
        if max_pending < 1:
            raise ConfigurationError("max_pending must be >= 1")
        if batch_window < 0:
            raise ConfigurationError("batch_window must be >= 0 seconds")
        if max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if max_graphs < 1:
            raise ConfigurationError("max_graphs must be >= 1")
        if on_full not in _ON_FULL_MODES:
            raise ConfigurationError(
                f"on_full must be one of {_ON_FULL_MODES}, got {on_full!r}"
            )
        if default_timeout is not None and default_timeout <= 0:
            raise ConfigurationError("default_timeout must be positive")
        if workers is None:
            usable = worker_count()
            self.workers = usable if usable > 1 else 0
        else:
            self.workers = workers
        self.max_pending = max_pending
        self.batch_window = batch_window
        self.max_batch = max_batch
        self.max_graphs = max_graphs
        self.on_full = on_full
        self.default_timeout = default_timeout
        self.stats = ServiceStats()
        self._results = cache
        self._inflight_results: Dict[str, "asyncio.Future[bytes]"] = {}
        self._router = Router()
        self._gate = _AdmissionGate(max_pending)
        self._batcher = MicroBatcher(batch_window, max_batch, self._dispatch)
        self._graphs: "OrderedDict[Graph, _GraphEntry]" = OrderedDict()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._serial_executor: Optional[ThreadPoolExecutor] = None
        self._inflight: Set["asyncio.Task[None]"] = set()
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    async def __aenter__(self) -> "FloodService":
        self._require_loop()
        return self

    async def __aexit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        await self.close()

    async def close(self) -> None:
        """Drain in-flight work, reap pools, and refuse further queries.

        Requests already admitted (including those still sitting in a
        micro-batch bucket) are flushed and completed; waiters blocked
        on backpressure fail with :class:`ServiceClosed`.
        """
        if self._closed:
            return
        self._closed = True
        self._gate.fail_all(ServiceClosed())
        self._batcher.flush_all()
        errors: List[BaseException] = []
        while self._inflight:
            outcomes = await asyncio.gather(
                *list(self._inflight), return_exceptions=True
            )
            errors.extend(
                outcome
                for outcome in outcomes
                if isinstance(outcome, BaseException)
                and not isinstance(outcome, asyncio.CancelledError)
            )
        loop = asyncio.get_running_loop()
        for entry in self._graphs.values():
            if entry.pool_task is not None and not entry.pool_task.done():
                try:  # a pool still warming must not leak its workers
                    await entry.pool_task
                except BaseException:
                    pass
            if entry.pool is not None:
                await loop.run_in_executor(None, entry.pool.close)
        self._graphs.clear()
        if self._serial_executor is not None:
            self._serial_executor.shutdown(wait=True)
            self._serial_executor = None
        if errors:
            # Batch-completion tasks never raise (failures resolve the
            # request futures); anything here is a retire/teardown bug
            # the caller should see, not a swallowed log line.
            raise errors[0]

    # -- registration --------------------------------------------------

    def register(self, graph: Graph) -> IndexedGraph:
        """Register (or touch) a topology; returns its frozen CSR index.

        Registration is where the per-graph costs are paid once: the
        CSR freeze and the pickled-index transfer into a warm worker
        pool (when ``workers >= 1``).  This call **blocks** while the
        pool forks and warms -- that is its purpose (move the warm-up
        off the first request's latency); call it from setup code, not
        from a latency-sensitive coroutine.
        ``query_spec``/``query_batch_specs`` auto-register unseen graphs
        too, building the pool off-loop so concurrent callers keep
        flowing.
        """
        if self._closed:
            raise ServiceClosed()
        entry = self._touch_or_insert(graph)
        self._clear_failed_warmup(entry)
        if self.workers >= 1 and entry.pool is None and entry.pool_task is None:
            entry.pool = self._build_pool(entry.graph)
        return entry.index

    @staticmethod
    def _clear_failed_warmup(entry: _GraphEntry) -> None:
        """Un-poison a topology whose off-loop warm-up failed.

        A done pool_task that left no pool behind failed (exception or
        cancellation); caching it forever would re-raise a stale error
        -- e.g. a transient fork EAGAIN -- on every later query.  Clear
        it so the next caller retries construction.
        """
        task = entry.pool_task
        if task is not None and task.done() and entry.pool is None:
            entry.pool_task = None

    def _build_pool(self, graph: Graph) -> SweepPool:
        return SweepPool(graph, workers=self.workers)

    def _touch_or_insert(self, graph: Graph) -> _GraphEntry:
        entry = self._graphs.get(graph)
        if entry is not None:
            self._graphs.move_to_end(graph)
            return entry
        entry = _GraphEntry(graph, IndexedGraph.of(graph))
        self._graphs[graph] = entry
        while len(self._graphs) > self.max_graphs:
            _, evicted = self._graphs.popitem(last=False)
            self._evict(evicted)
        return entry

    async def _entry_async(self, graph: Graph, slots: int) -> _GraphEntry:
        """Resolve a dispatch-ready entry with ``slots`` tracked on it.

        The pool fork + index pickle can take long enough to stall
        every other caller if run on the loop thread, so auto
        registration builds it in the executor behind a single shared
        task.  Tracking happens in the same loop tick as the registry
        check, so once this returns, eviction (which waits for the
        tracked count to drain) can no longer close the pool under the
        caller's requests.

        If the entry keeps getting evicted while its pool warms (tiny
        ``max_graphs`` + more concurrent topologies than the registry
        holds), fall back to an unregistered, pool-less entry: the
        request then runs on the in-process serial path -- identical
        results, no pool to race with.
        """
        for _ in range(5):
            entry = self._touch_or_insert(graph)
            if self.workers < 1 or entry.pool is not None:
                entry.track(slots)
                return entry
            if entry.pool_task is None:
                loop = self._require_loop()
                entry.pool_task = loop.create_task(
                    self._warm_pool(entry), name="flood-pool-warmup"
                )
            try:
                # Shield: one caller's cancellation must not kill the
                # shared construction other callers are awaiting.
                await asyncio.shield(entry.pool_task)
            except BaseException:
                self._clear_failed_warmup(entry)
                raise
            if self._graphs.get(graph) is entry:
                entry.track(slots)
                return entry
        entry = _GraphEntry(graph, IndexedGraph.of(graph))
        entry.track(slots)
        return entry

    async def _warm_pool(self, entry: _GraphEntry) -> SweepPool:
        loop = asyncio.get_running_loop()
        pool = await loop.run_in_executor(
            None, partial(self._build_pool, entry.graph)
        )
        entry.pool = pool
        return pool

    def _evict(self, entry: _GraphEntry) -> None:
        if entry.pool is None and entry.pool_task is None:
            return
        if self._loop is not None and self._loop.is_running():
            task = self._loop.create_task(
                self._retire(entry), name="flood-pool-retire"
            )
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)
        elif entry.pool is not None:
            entry.pool.close()

    async def _retire(self, entry: _GraphEntry) -> None:
        """Close an evicted entry's pool once nothing can still use it.

        Waits for a pool still warming up, then for every admitted
        request on this topology (bucketed ones flush on their own
        timers) before the drain-and-join close runs in the executor.
        Tracked in ``_inflight`` so :meth:`close` awaits it and a
        failing ``pool.close`` surfaces instead of vanishing into a
        dropped future.
        """
        if entry.pool_task is not None:
            try:
                await asyncio.shield(entry.pool_task)
            except BaseException:
                pass  # construction failed; nothing to close
        await entry.wait_idle()
        if entry.pool is not None:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, entry.pool.close)

    # -- queries -------------------------------------------------------

    async def query_spec(
        self,
        spec: FloodSpec,
        *,
        timeout: Any = _UNSET,
        on_full: Optional[str] = None,
    ) -> IndexedRun:
        """One flood query from a validated :class:`FloodSpec`.

        Validation (unknown nodes, bad budgets/backends) already
        happened at spec construction; admission applies backpressure
        per ``on_full``.  The service routes the spec, admits it, and
        buckets it under ``(entry, spec.batch_key(backend))`` -- equal
        specs coalesce into the same pool batch.  The request runs on the RNG
        stream ``derive_key(variant.seed, spec.stream)``, derived here
        per *request* so coalescing can never move a query between
        streams.

        With a result cache, the request first consults the stored
        blobs (``spec.cache == "use"``), then the in-flight table
        (joining an identical execution already running), and only then
        becomes a leader: it registers its pending future *before*
        admission, so every identical query arriving while it runs --
        or waits for a slot -- coalesces onto it instead of executing.
        """
        entry, chosen = await self._prepare_spec(spec, slots=1)
        cache = self._results
        cache_key: Optional[str] = None
        if cache is not None and spec.cache != "bypass":
            key = result_cache_key(spec, chosen)
            if spec.cache == "use":
                run = lookup_run(cache, key, spec, entry.index)
                if run is not None:
                    entry.untrack(1)
                    self.stats.queries += 1
                    self.stats.cache_hits += 1
                    return run
                joinable = self._inflight_results.get(key)
                if joinable is not None and not joinable.done():
                    entry.untrack(1)
                    self.stats.queries += 1
                    self.stats.cache_coalesced += 1
                    cache.note_coalesced()
                    # Shield: this caller's cancellation or timeout must
                    # not cancel the future every other joiner shares.
                    blob = await self._await_result(
                        asyncio.shield(joinable), timeout
                    )
                    return self._decode_joined(blob, spec, entry.index)
            self.stats.cache_misses += 1
            cache_key = key
        pending: Optional["asyncio.Future[bytes]"] = None
        if cache_key is not None:
            pending = self._require_loop().create_future()
            self._inflight_results[cache_key] = pending
        try:
            await self._admit(1, on_full)
        except BaseException as exc:
            entry.untrack(1)
            self._abort_pending(cache_key, pending, exc)
            raise
        request = _Request(
            entry.index.resolve_sources(spec.sources),
            self._require_loop().create_future(),
            spec.run_key(),
            cache_key=cache_key,
            pending=pending,
        )
        try:
            self._batcher.add((entry, spec.batch_key(chosen)), request)
        except BaseException as exc:
            self._gate.release(1)
            entry.untrack(1)
            self._abort_pending(cache_key, pending, exc)
            raise
        self.stats.queries += 1
        return await self._await_result(request.future, timeout)

    @staticmethod
    def _decode_joined(
        blob: bytes, spec: FloodSpec, index: IndexedGraph
    ) -> IndexedRun:
        """Decode the blob a coalesced execution delivered (never a miss)."""
        run = decode_run(blob, spec, index)
        if run is None:
            raise ServiceError(
                "cache codec rejected a blob it just encoded; this is a bug"
            )
        return run

    def _abort_pending(
        self,
        cache_key: Optional[str],
        pending: Optional["asyncio.Future[bytes]"],
        exc: BaseException,
    ) -> None:
        """Fail a leader's in-flight future when its execution never starts.

        Joiners attached to it inherit the leader's admission/submission
        failure -- they chose to ride this execution, and nothing else
        will ever resolve it.
        """
        if pending is None or cache_key is None:
            return
        if self._inflight_results.get(cache_key) is pending:
            del self._inflight_results[cache_key]
        if not pending.done():
            pending.set_exception(exc)
            _consume_outcome(pending)

    async def query_batch_specs(
        self,
        specs: Sequence[FloodSpec],
        *,
        timeout: Any = _UNSET,
        on_full: Optional[str] = None,
    ) -> List[IndexedRun]:
        """A caller-shaped homogeneous spec batch, dispatched whole.

        The specs must agree on graph and execution-relevant fields
        (:func:`~repro.fastpath.engine.ensure_homogeneous_specs`); each
        runs on its own spec's RNG stream.  The batch admits atomically
        (all ``n`` slots or backpressure) and skips the micro-batch
        window.  Results come back in input order, bit-identical to
        ``sweep_specs`` of the same batch.

        With a result cache the batch is *partitioned*: positions whose
        blob is stored are served from it, positions identical to an
        in-flight execution (another caller's, or an earlier position
        of this same batch) join it, and only the remaining unique
        misses are admitted and dispatched -- output order and content
        are unchanged.
        """
        if not specs:
            return []
        from repro.fastpath.engine import ensure_homogeneous_specs

        specs = list(specs)
        head = ensure_homogeneous_specs(specs)
        entry, chosen = await self._prepare_spec(head, slots=len(specs))
        cache = self._results
        results: List[Optional[IndexedRun]] = [None] * len(specs)
        miss_positions: List[int] = []
        keys: List[Optional[str]] = [None] * len(specs)
        joins: List[Tuple[int, "asyncio.Future[bytes]"]] = []
        leaders: Dict[str, int] = {}
        dup_of: Dict[int, str] = {}
        if cache is None:
            miss_positions = list(range(len(specs)))
        else:
            for position, spec in enumerate(specs):
                if spec.cache == "bypass":
                    miss_positions.append(position)
                    continue
                key = result_cache_key(spec, chosen)
                if spec.cache == "use":
                    run = lookup_run(cache, key, spec, entry.index)
                    if run is not None:
                        results[position] = run
                        self.stats.cache_hits += 1
                        continue
                    joinable = self._inflight_results.get(key)
                    if joinable is not None and not joinable.done():
                        joins.append((position, joinable))
                        self.stats.cache_coalesced += 1
                        cache.note_coalesced()
                        continue
                if key in leaders:
                    # In-batch dedupe: a later identical miss rides the
                    # earlier position's execution.
                    dup_of[position] = key
                    self.stats.cache_coalesced += 1
                    cache.note_coalesced()
                    continue
                self.stats.cache_misses += 1
                leaders[key] = position
                keys[position] = key
                miss_positions.append(position)
        executed = len(miss_positions)
        if executed < len(specs):
            # Hit/join/dedupe positions never occupy the entry.
            entry.untrack(len(specs) - executed)
        self.stats.queries += len(specs)
        requests: List[_Request] = []
        pending_by_key: Dict[str, "asyncio.Future[bytes]"] = {}
        if executed:
            loop = self._require_loop()
            for position in miss_positions:
                spec = specs[position]
                key = keys[position]
                pending: Optional["asyncio.Future[bytes]"] = None
                if key is not None:
                    pending = loop.create_future()
                    self._inflight_results[key] = pending
                    pending_by_key[key] = pending
                requests.append(
                    _Request(
                        entry.index.resolve_sources(spec.sources),
                        loop.create_future(),
                        spec.run_key(),
                        cache_key=key,
                        pending=pending,
                    )
                )
            try:
                await self._admit(executed, on_full)
            except BaseException as exc:
                entry.untrack(executed)
                for request in requests:
                    self._abort_pending(request.cache_key, request.pending, exc)
                raise
            self._dispatch((entry, head.batch_key(chosen)), requests)
        elif not joins:
            return results  # type: ignore[return-value]  # fully served
        # return_exceptions so every future is retrieved even when one
        # fails (all requests of a batch share any failure anyway).
        gathered = asyncio.gather(
            *(request.future for request in requests),
            # Shield: this caller's cancellation or timeout must not
            # cancel futures other joiners share.
            *(asyncio.shield(joinable) for _, joinable in joins),
            return_exceptions=True,
        )
        outcomes = await self._await_result(gathered, timeout)
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
        for position, run in zip(miss_positions, outcomes[:executed]):
            results[position] = run
        for (position, _), blob in zip(joins, outcomes[executed:]):
            results[position] = self._decode_joined(
                blob, specs[position], entry.index
            )
        for position, key in dup_of.items():
            results[position] = self._decode_joined(
                pending_by_key[key].result(), specs[position], entry.index
            )
        return results  # type: ignore[return-value]

    # -- internals -----------------------------------------------------

    async def _prepare_spec(
        self, spec: FloodSpec, slots: int
    ) -> Tuple[_GraphEntry, str]:
        """Shared front half: route a validated spec, acquire a tracked entry.

        The spec carries its validation from construction time, so the
        only checks left are service-level (open, fast-path-runnable)
        -- they raise before any state changes.  The returned entry
        carries ``slots`` tracked slots: the caller owns matching
        ``untrack`` calls on its failure paths, and ``_resolve``
        performs it on the success path.
        """
        if self._closed:
            raise ServiceClosed()
        self._require_loop()
        if spec.scenario is not None:
            raise ConfigurationError(
                f"scenario {spec.scenario!r} runs on the reference engines; "
                f"use FloodSession.run/aquery (the service serves the fast "
                f"path)"
            )
        entry = await self._entry_async(spec.graph, slots)
        try:
            chosen = self._router.resolve(entry.index, spec.backend, spec.variant)
        except BaseException:
            entry.untrack(slots)
            raise
        return entry, chosen

    async def _admit(self, slots: int, on_full: Optional[str]) -> None:
        if self._closed:
            # A caller can suspend in _prepare's pool warm-up and
            # resume after close(); admitting it would submit to a
            # reaped pool.  Refuse with the typed error instead.
            raise ServiceClosed()
        mode = self.on_full if on_full is None else on_full
        if mode not in _ON_FULL_MODES:
            raise ConfigurationError(
                f"on_full must be one of {_ON_FULL_MODES}, got {on_full!r}"
            )
        if slots > self.max_pending:
            # Larger than the whole queue: no amount of waiting admits it.
            self.stats.rejected += 1
            raise QueueFull(self.max_pending, slots)
        if self._gate.try_acquire(slots):
            return
        if mode == RAISE:
            self.stats.rejected += 1
            raise QueueFull(self.max_pending, slots)
        self.stats.waited += 1
        await self._gate.acquire(slots)
        if self._closed:  # closed while waiting; slot is moot
            self._gate.release(slots)
            raise ServiceClosed()

    def _dispatch(
        self, key: Tuple[_GraphEntry, BatchKey], requests: List[_Request]
    ) -> None:
        """Flush one batch to the execution backend (pool or serial).

        Called by the micro-batcher (event-loop callback) and by
        ``query_batch_specs`` directly; never raises into the batcher --
        failures resolve the request futures exceptionally instead.
        ``key`` is the micro-batch key itself: the graph entry plus the
        requests' shared :class:`~repro.api.spec.BatchKey`, which rides
        into the pool (or the serial executor) unchanged.
        """
        entry, batch = key
        id_lists = [request.id_list for request in requests]
        run_keys = (
            [request.run_key for request in requests]
            if batch.variant is not None
            else None
        )
        self.stats.batches += 1
        self.stats.batched_requests += len(requests)
        self.stats.largest_batch = max(self.stats.largest_batch, len(requests))
        if len(requests) > 1:
            self.stats.coalesced_batches += 1
        self.stats.backends[batch.backend] = (
            self.stats.backends.get(batch.backend, 0) + len(requests)
        )
        loop = self._loop
        assert loop is not None, "dispatch before loop binding"
        try:
            if entry.pool is not None:
                pool_future = entry.pool.submit_batch(
                    id_lists, batch, None, run_keys
                )
                awaitable: "asyncio.Future[List[IndexedRun]]" = (
                    asyncio.wrap_future(pool_future, loop=loop)
                )
            else:
                awaitable = loop.run_in_executor(
                    self._serial(),
                    partial(
                        serial_batch_ids,
                        entry.index,
                        id_lists,
                        batch,
                        run_keys,
                    ),
                )
        except BaseException as exc:
            self._resolve(entry, requests, None, exc)
            return
        task = loop.create_task(self._complete(entry, requests, awaitable))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _complete(
        self,
        entry: _GraphEntry,
        requests: List[_Request],
        awaitable: "asyncio.Future[List[IndexedRun]]",
    ) -> None:
        try:
            runs = await awaitable
        except BaseException as exc:
            self._resolve(entry, requests, None, exc)
        else:
            self._resolve(entry, requests, runs, None)

    def _resolve(
        self,
        entry: _GraphEntry,
        requests: List[_Request],
        runs: Optional[List[IndexedRun]],
        exc: Optional[BaseException],
    ) -> None:
        """Distribute one batch's outcome; always releases admission.

        Cache-leader pendings settle *first*, and regardless of the
        caller future's state: a leader that cancelled or timed out
        still encodes, stores and hands its result to every joiner --
        the work completed either way.
        """
        for position, request in enumerate(requests):
            if request.pending is not None:
                self._settle_pending(
                    request, runs[position] if runs is not None else None, exc
                )
            if request.future.done():  # caller cancelled; result dropped
                continue
            if exc is not None:
                request.future.set_exception(exc)
            else:
                assert runs is not None
                request.future.set_result(runs[position])
        self._gate.release(len(requests))
        entry.untrack(len(requests))

    def _settle_pending(
        self,
        request: _Request,
        run: Optional[IndexedRun],
        exc: Optional[BaseException],
    ) -> None:
        """Store a leader's fresh result and resolve its in-flight future."""
        cache_key = request.cache_key
        pending = request.pending
        assert cache_key is not None and pending is not None
        if self._inflight_results.get(cache_key) is pending:
            del self._inflight_results[cache_key]
        if exc is not None:
            if not pending.done():
                pending.set_exception(exc)
                _consume_outcome(pending)
            return
        assert run is not None
        blob = encode_run(run)
        assert self._results is not None
        self._results.put(cache_key, blob)
        if not pending.done():
            pending.set_result(blob)

    async def _await_result(self, future: Any, timeout: Any) -> Any:
        seconds = self.default_timeout if timeout is _UNSET else timeout
        if seconds is None:
            return await future
        try:
            # Shield: a timeout abandons the *wait*, not the work -- the
            # flood still completes in the pool and releases its slots.
            return await asyncio.wait_for(asyncio.shield(future), seconds)
        except asyncio.TimeoutError:
            self.stats.timeouts += 1
            # Nobody will await this future again; mark its eventual
            # exception (if the batch later fails) as retrieved so the
            # abandonment does not spam the unhandled-exception log.
            future.add_done_callback(_consume_outcome)
            raise QueryTimeout(seconds) from None

    def _serial(self) -> ThreadPoolExecutor:
        if self._serial_executor is None:
            # One thread: serial mode really is serial, and batch
            # dispatch order is execution order.
            self._serial_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="flood-serial"
            )
        return self._serial_executor

    def _require_loop(self) -> asyncio.AbstractEventLoop:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
        elif self._loop is not loop:
            raise ServiceError(
                "FloodService is bound to the event loop it first ran on; "
                "create one service per loop"
            )
        return loop

    @property
    def pending(self) -> int:
        """Admitted-but-unfinished requests (the backpressured quantity)."""
        return self._gate.used

    @property
    def result_cache(self) -> Optional[ResultCache]:
        """The result cache this service serves from (``None`` when uncached)."""
        return self._results

    def cache_stats(self) -> Optional[CacheStats]:
        """The cache's counter snapshot, or ``None`` when uncached.

        (``stats`` is the live :class:`ServiceStats` attribute --
        service-side cache counters live there; this is the cache
        object's own view, shared with whatever session handed the
        cache in.)
        """
        if self._results is None:
            return None
        return self._results.stats()

    def __repr__(self) -> str:
        mode = f"workers={self.workers}" if self.workers else "serial"
        return (
            f"FloodService({mode}, graphs={len(self._graphs)}, "
            f"pending={self.pending}, closed={self._closed})"
        )
