"""``FloodSession``: plan and execute :class:`FloodSpec` requests.

The facade over the execution tiers.  A session owns the warm state the
tiers need -- per-graph :class:`~repro.parallel.SweepPool` workers for
batch work, one :class:`~repro.service.FloodService` for async queries
-- and plans each request from its spec alone:

* :meth:`FloodSession.run` -- one spec, serially, on the fast-path
  engine (every scenario string binds to a variant or the plain
  process): a :meth:`~FloodSession.sweep` batch of one.
  ``reference=True`` reruns the request on its pinned set-based
  reference engine instead.
* :meth:`FloodSession.sweep` -- many specs: grouped by execution shape
  (:meth:`~repro.api.spec.FloodSpec.shape`: graph, budget, backend
  request, variant, collection flags), each
  group resolved by the one backend rule
  (:func:`~repro.fastpath.engine.resolve_backend`) and run serially
  or across a warm worker pool depending on batch size and usable
  cores -- the same heuristics as
  :func:`~repro.parallel.parallel_sweep`, with results returned in
  input order and bit-identical to the serial path.
* :meth:`FloodSession.aquery` -- one spec, asynchronously: coalesced
  with concurrent callers through the service's spec-keyed
  micro-batches.

Every result comes back as a :class:`~repro.api.result.FloodResult`
wrapping the tier-native record, so switching tiers never changes what
the caller reads.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.api.result import FloodResult
from repro.api.spec import FloodSpec
from repro.errors import ConfigurationError
from repro.graphs.graph import Graph

SERIAL = "serial"
POOL = "pool"


@dataclass(frozen=True)
class ExecutionPlan:
    """Where a spec (or a spec group) will execute, and on what backend.

    ``mode`` is ``"serial"`` or ``"pool"``; ``backend`` is the resolved
    engine name; ``workers`` is the pool size for pooled plans (0
    otherwise).  Purely observational -- :meth:`FloodSession.plan`
    returns it so callers and tests can see routing decisions without
    running anything.
    """

    mode: str
    backend: str
    workers: int = 0


class FloodSession:
    """A facade session over engine, pool and service execution.

    Parameters
    ----------
    workers:
        ``None`` auto-sizes to the usable cores (and keeps batches of
        fewer than :data:`~repro.parallel.pool.MIN_PARALLEL_BATCH` runs
        serial, see :meth:`_pooled`);
        ``0`` forces everything in-process serial; ``n >= 1`` builds
        real ``n``-worker pools for every batched graph (and an
        ``n``-worker service).  Results are bit-identical in every
        mode.
    cache:
        Optional :class:`~repro.cache.ResultCache`.  When set,
        :meth:`run` and :meth:`sweep` serve fast-path specs from stored
        blobs when possible (a cache-aware sweep partitions its groups
        into hits and misses, executes only the misses, and returns
        results in input order, bit-identical to the uncached sweep),
        and the session's service shares the same cache, so
        :meth:`aquery` traffic warms synchronous calls and vice versa.
        Reference runs always execute (their engine-native records
        have no codec);
        ``spec.cache = "bypass" | "refresh"`` opts individual requests
        out.  :meth:`cache_stats` snapshots the counters.

    Usage::

        from repro.api import FloodSession, FloodSpec

        spec = FloodSpec(graph=graph, sources=(0,))
        with FloodSession() as session:
            result = session.run(spec)
            batch = session.sweep([spec.replace(sources=(v,))
                                   for v in graph.nodes()])

        async with FloodSession() as session:       # async flows
            result = await session.aquery(spec)

    Pools are built lazily per graph and kept warm, at most the
    ``DEFAULT_MAX_GRAPHS`` most recently used; close with the context
    manager (``with`` / ``async with``), :meth:`close`, or
    :meth:`aclose` when async queries ran.
    """

    def __init__(
        self, workers: Optional[int] = None, *, cache: Optional[Any] = None
    ) -> None:
        if workers is not None and workers < 0:
            raise ConfigurationError("workers must be >= 0 (0 = serial mode)")
        self.workers = workers
        self._results = cache
        self._pools: Dict[Graph, Any] = {}
        self._service: Optional[Any] = None
        self._closed = False

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def _resolved_workers(self) -> int:
        from repro.parallel.pool import worker_count

        if self.workers == 0:
            return 0
        return worker_count(self.workers)

    def _pooled(self, batch_size: int) -> bool:
        """Whether a fast-path group of ``batch_size`` runs uses a pool.

        Auto mode (``workers=None``) requires both multiple usable
        cores and at least :data:`~repro.parallel.pool.MIN_PARALLEL_BATCH`
        *runs*; an explicit worker count always pools (the caller asked
        for workers, they get them); ``workers=0`` never pools.

        This counts runs where the one-shot
        :func:`~repro.parallel.parallel_sweep` counts engine passes
        (:func:`~repro.fastpath.engine.batch_passes`), because the
        session's pools stay warm across batches and pay no start-up
        per batch.  On a 2-core VM (three runs of 15-25 interleaved
        repetitions, medians), ER-2000 (mean degree 8) x 512 numpy runs
        (8 passes) took 15.5-20.6 ms through a warm 2-worker pool and
        14.1-19.4 ms serially, a tie within the noise, and ER-10k x 512
        took 55-85 ms warm-pooled against 76-101 ms serially.
        """
        from repro.parallel.pool import MIN_PARALLEL_BATCH

        if self.workers == 0 or batch_size < 2:
            return False
        if self.workers is not None:
            return True
        resolved = self._resolved_workers()
        return resolved > 1 and batch_size >= MIN_PARALLEL_BATCH

    def plan(self, spec: FloodSpec, batch_size: int = 1) -> ExecutionPlan:
        """The execution plan for ``spec`` in a :meth:`sweep` batch of
        ``batch_size``.

        Resolves the backend exactly like every tier does
        (:func:`~repro.fastpath.engine.resolve_backend`, which does not
        depend on the batch size) without running anything.
        """
        from repro.fastpath.engine import resolve_backend

        backend = resolve_backend(spec.index(), spec.backend, spec.variant)
        if self._pooled(batch_size):
            return ExecutionPlan(
                mode=POOL, backend=backend, workers=self._resolved_workers()
            )
        return ExecutionPlan(mode=SERIAL, backend=backend)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, spec: FloodSpec, *, reference: bool = False) -> FloodResult:
        """Execute one spec serially; the facade form of ``simulate``.

        A batch of one through :meth:`sweep`, which never pools it: the
        result is bit-identical to ``fastpath.run_spec`` of the same
        request and shares its cache entry with ``sweep([spec])``.
        ``reference=True`` is the escape hatch onto the pinned
        set-based engines (:func:`repro.api.scenarios.run_scenario`) --
        the second opinion the equivalence matrix compares against;
        reference runs never touch the result cache.
        """
        self._require_open()
        if reference:
            from repro.api.scenarios import run_scenario

            return run_scenario(spec)
        return self.sweep([spec])[0]

    def sweep(self, specs: Iterable[FloodSpec]) -> List[FloodResult]:
        """Execute many specs; results in input order.

        Specs are grouped by execution shape
        (:meth:`~repro.api.spec.FloodSpec.shape`: the graph and
        everything :class:`~repro.api.spec.BatchKey`-relevant);
        each group runs as one batch -- serially, or across this
        session's warm pool for that graph when the batch and the
        machine justify one.  Grouping changes
        scheduling, never content: every group's results are
        bit-identical to the serial spec sweep, which is itself
        bit-identical to the kwargs ``sweep``/``parallel_sweep`` of the
        same requests.
        """
        self._require_open()
        specs = list(specs)
        for spec in specs:
            if not isinstance(spec, FloodSpec):
                raise ConfigurationError(
                    f"sweep takes FloodSpec values, got {type(spec).__name__}"
                )
        groups: Dict[Tuple, List[int]] = {}
        for position, spec in enumerate(specs):
            groups.setdefault(spec.shape(), []).append(position)
        results: List[Optional[FloodResult]] = [None] * len(specs)
        for positions in groups.values():
            group = [specs[position] for position in positions]
            for position, result in zip(positions, self._run_group(group)):
                results[position] = result
        return results  # type: ignore[return-value]

    def _run_group(self, group: List[FloodSpec]) -> List[FloodResult]:
        if self._results is not None:
            runs = self._run_group_cached(group)
        else:
            runs = self._execute_group(group)
        return [
            FloodResult.from_indexed(spec, run)
            for spec, run in zip(group, runs)
        ]

    def _execute_group(self, group: List[FloodSpec]) -> List[Any]:
        if self._pooled(len(group)):
            pool = self._pool_for(group[0].graph)
            return pool.sweep_specs(group)
        from repro.fastpath.engine import sweep_specs

        return sweep_specs(group)

    def _run_group_cached(self, group: List[FloodSpec]) -> List[Any]:
        """Partition one homogeneous group into cache hits and misses.

        Only the misses execute (as one sub-batch, pooled or serial by
        the *remaining* batch size); in-batch duplicate misses execute
        once and later positions decode private copies of the stored
        blob.  The returned list is in group order -- the caller's
        input-order contract and bit-identity to the uncached sweep are
        preserved because every position's run comes through the same
        rehydration funnel either way.
        """
        from repro.cache import (
            decode_run,
            encode_run,
            lookup_run,
            result_cache_key,
        )
        from repro.fastpath.engine import resolve_backend

        cache = self._results
        index = group[0].index()
        # The one resolution rule, as in every batch tier: a spec
        # addresses one entry whichever tier stored it.
        chosen = resolve_backend(index, group[0].backend, group[0].variant)
        results: List[Optional[Any]] = [None] * len(group)
        keys: List[Optional[str]] = [None] * len(group)
        miss_positions: List[int] = []
        leaders: Dict[str, int] = {}
        dup_of: Dict[int, str] = {}
        for position, spec in enumerate(group):
            if spec.cache == "bypass":
                miss_positions.append(position)
                continue
            key = result_cache_key(spec, chosen)
            if spec.cache == "use":
                run = lookup_run(cache, key, spec, index)
                if run is not None:
                    results[position] = run
                    continue
            if key in leaders:
                dup_of[position] = key
                cache.note_coalesced()
                continue
            leaders[key] = position
            keys[position] = key
            miss_positions.append(position)
        stored: Dict[str, bytes] = {}
        if miss_positions:
            runs = self._execute_group([group[p] for p in miss_positions])
            for position, run in zip(miss_positions, runs):
                results[position] = run
                key = keys[position]
                if key is not None:
                    blob = encode_run(run)
                    stored[key] = blob
                    cache.put(key, blob)
        for position, key in dup_of.items():
            run = decode_run(stored[key], group[position], index)
            assert run is not None  # just encoded by this very process
            results[position] = run
        return results  # type: ignore[return-value]

    def _pool_for(self, graph: Graph) -> Any:
        """The warm pool for ``graph``, kept most recently used.

        At most the service's ``DEFAULT_MAX_GRAPHS`` pools stay warm;
        the least recently used one closes first.  ``sweep`` is
        synchronous, so an evicted pool has no batch in flight.
        """
        from repro.parallel.pool import SweepPool
        from repro.service.service import DEFAULT_MAX_GRAPHS

        pool = self._pools.pop(graph, None)
        if pool is None:
            if len(self._pools) >= DEFAULT_MAX_GRAPHS:
                self._pools.pop(next(iter(self._pools))).close()
            pool = SweepPool(graph, workers=self._resolved_workers())
        self._pools[graph] = pool
        return pool

    async def aquery(
        self,
        spec: FloodSpec,
        *,
        timeout: Any = ...,
        on_full: Optional[str] = None,
    ) -> FloodResult:
        """Execute one spec asynchronously, coalescing with other callers.

        The spec rides the session's :class:`FloodService`: it is the
        request, its :class:`~repro.api.spec.BatchKey` is the micro-batch
        key, and the result is bit-identical to :meth:`sweep` of
        ``[spec]`` and :meth:`run` of ``spec`` (the service resolves
        backends with the same rule).  ``timeout`` / ``on_full`` follow
        :meth:`repro.service.FloodService.query_spec`.
        """
        self._require_open()
        service = self._ensure_service()
        from repro.service.service import _UNSET

        run = await service.query_spec(
            spec,
            timeout=_UNSET if timeout is ... else timeout,
            on_full=on_full,
        )
        return FloodResult.from_indexed(spec, run)

    def _ensure_service(self) -> Any:
        if self._service is None:
            from repro.service import FloodService

            # The service shares the session's cache object, so async
            # and synchronous traffic warm each other.
            self._service = FloodService(
                workers=self.workers, cache=self._results
            )
        return self._service

    def cache_stats(self) -> Optional[Any]:
        """Counter snapshot of this session's result cache (``None`` uncached).

        One :class:`~repro.cache.CacheStats` view over everything the
        shared cache served -- ``run``, ``sweep`` and ``aquery`` alike.
        """
        if self._results is None:
            return None
        return self._results.stats()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise ConfigurationError("this FloodSession is closed")

    def close(self) -> None:
        """Reap the session's pools (and service, best-effort).

        If :meth:`aquery` was used, prefer ``async with`` or
        :meth:`aclose`, which drain the service on its own event loop;
        the synchronous form spins a fresh loop to close an idle
        service.
        """
        if self._closed:
            return
        self._closed = True
        for pool in self._pools.values():
            pool.close()
        self._pools.clear()
        service, self._service = self._service, None
        if service is not None and not service._closed:
            asyncio.run(service.close())

    async def aclose(self) -> None:
        """Drain and close the service on the running loop, then the pools."""
        if self._closed:
            return
        service, self._service = self._service, None
        if service is not None:
            await service.close()
        self._closed = True
        for pool in self._pools.values():
            pool.close()
        self._pools.clear()

    def __enter__(self) -> "FloodSession":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    async def __aenter__(self) -> "FloodSession":
        return self

    async def __aexit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        await self.aclose()

    def __repr__(self) -> str:
        mode = (
            "serial"
            if self.workers == 0
            else f"workers={self.workers if self.workers else 'auto'}"
        )
        return (
            f"FloodSession({mode}, pools={len(self._pools)}, "
            f"service={'yes' if self._service else 'no'}, "
            f"closed={self._closed})"
        )
