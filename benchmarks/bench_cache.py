"""EXT-CACHE: the content-addressed result cache under repeated load.

The caching acceptance rows.  A serving process sees the same handful
of specs over and over -- parameter sweeps re-request their grid,
dashboards poll fixed queries -- so the workload here is 256 queries
drawn from 32 distinct specs (each distinct spec requested 8 times):

* ``hit_throughput`` -- the 256-query workload through a
  cache-equipped :class:`~repro.service.FloodService` versus the same
  service uncached.  The cached pass executes each distinct spec once
  and answers the other 224 requests by decoding the stored blob, so
  the asserted floor is >= 5x uncached throughput (this arms in quick
  mode too: decode cost shrinks with the workload just as execution
  does).  Every cached answer is asserted bit-identical to the
  uncached one, position by position.
* ``cold_store_hits`` -- the same workload served by a *cold* process:
  an empty in-memory tier over a warm :class:`~repro.cache.DirectoryStore`,
  the cross-process tier.  All 32 distinct specs must be answered from
  the store (zero executions), again bit-identical.

Set ``REPRO_BENCH_QUICK=1`` (or ``run_bench.py --quick``) for the
smoke-sized workload.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import time

import pytest

from repro.api import FloodSpec
from repro.cache import DirectoryStore, ResultCache
from repro.graphs import erdos_renyi
from repro.service import FloodService

from conftest import record, timed_pedantic

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

NODES = 1_000 if QUICK else 8_000
DISTINCT = 32
QUERIES = 256
SPEEDUP_FLOOR = 5.0
"""Cached-service throughput floor over the uncached service."""


@pytest.fixture(scope="module")
def workload():
    """256 queries over 32 distinct specs: the repeated-request shape."""
    graph = erdos_renyi(NODES, 8.0 / NODES, seed=NODES, connected=True)
    distinct = [
        FloodSpec(graph=graph, sources=(source,))
        for source in graph.nodes()[:DISTINCT]
    ]
    specs = [distinct[i % DISTINCT] for i in range(QUERIES)]
    return graph, specs


def serve_batch(specs, cache):
    """One service lifetime answering the whole workload in-process."""

    async def main():
        async with FloodService(workers=0, cache=cache) as service:
            runs = await service.query_batch_specs(specs)
            return runs, service.stats

    return asyncio.run(main())


def _assert_bit_identical(cached_runs, fresh_runs):
    for cached, fresh in zip(cached_runs, fresh_runs):
        assert cached.sources == fresh.sources
        assert cached.terminated == fresh.terminated
        assert cached.termination_round == fresh.termination_round
        assert cached.total_messages == fresh.total_messages
        assert cached.round_edge_counts == fresh.round_edge_counts


def test_ext_cache_hit_throughput(benchmark, workload):
    """Cached service >= 5x the uncached service on the 8:1 workload."""
    graph, specs = workload

    # Uncached baseline, best-of-3: every request executes.
    uncached_seconds = None
    uncached_runs = None
    for _ in range(3):
        started = time.perf_counter()
        uncached_runs, _ = serve_batch(specs, cache=None)
        elapsed = time.perf_counter() - started
        if uncached_seconds is None or elapsed < uncached_seconds:
            uncached_seconds = elapsed

    cache = ResultCache()
    # Warm pass: the 32 distinct specs execute exactly once.
    warm_runs, warm_stats = serve_batch(specs, cache=cache)
    _assert_bit_identical(warm_runs, uncached_runs)
    assert warm_stats.batched_requests == DISTINCT

    (cached_runs, cached_stats), cached_seconds = timed_pedantic(
        benchmark, serve_batch, args=(specs, cache)
    )
    _assert_bit_identical(cached_runs, uncached_runs)
    assert cached_stats.cache_hits == QUERIES  # zero executions

    speedup = uncached_seconds / cached_seconds
    assert speedup >= SPEEDUP_FLOOR, (
        f"cached service only {speedup:.2f}x over uncached on "
        f"{QUERIES} queries / {DISTINCT} distinct specs "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
    stats = cache.stats()
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend=cached_runs[0].backend,
        batch=QUERIES,
        distinct=DISTINCT,
        workers=0,
        serial_seconds=uncached_seconds,
        speedup=round(speedup, 2),
        hit_rate=round(stats.hit_rate(), 3),
    )


def test_ext_cache_cold_store_hits(benchmark, workload):
    """A cold process over a warm DirectoryStore: zero executions."""
    graph, specs = workload

    fresh_runs, _ = serve_batch(specs, cache=None)
    with tempfile.TemporaryDirectory() as tmp:
        store = DirectoryStore(tmp)
        serve_batch(specs, cache=ResultCache(store=store))  # warm the store
        assert len(store) == DISTINCT

        cold_cache = ResultCache(store=store)  # empty memory tier
        (cold_runs, cold_stats) = benchmark.pedantic(
            serve_batch, args=(specs, cold_cache), rounds=1, iterations=1
        )
    _assert_bit_identical(cold_runs, fresh_runs)
    assert cold_stats.batched_requests == 0  # nothing executed
    stats = cold_cache.stats()
    assert stats.store_hits == DISTINCT

    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend=cold_runs[0].backend,
        batch=QUERIES,
        distinct=DISTINCT,
        workers=0,
        store_hits=stats.store_hits,
        hit_rate=round(stats.hit_rate(), 3),
    )
