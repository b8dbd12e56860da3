"""EXT-API: the ``repro.api`` facade overhead rows.

PR 5 routed every execution tier through one declarative request
object: legacy ``sweep(graph, sets, ...)`` now constructs one
:class:`~repro.api.spec.FloodSpec` per source set and runs the batch
through the spec pipeline, and ``FloodSession.sweep`` is the facade
form of the same call.  These rows pin the cost of that indirection:

* ``facade_overhead`` -- ``FloodSession.sweep`` (serial plan) vs the
  direct ``fastpath.sweep`` of the same batch, identical results
  asserted, and the wall-clock ratio asserted under
  :data:`OVERHEAD_LIMIT` (the facade must stay within 5% of the direct
  call on the full workload; the smoke-sized lane gets headroom
  because per-spec fixed costs weigh more on tiny floods).  Both sides
  are measured best-of-N on alternating runs so allocator/cache drift
  hits them evenly.
* ``facade_pooled`` -- ``FloodSession.sweep`` through a warm 2-worker
  pool vs the same session running serially: bit-identical results
  always asserted; the speedup ratio is recorded, and asserted only on
  >= 4 usable cores per the repo's 1-core-container convention.

Set ``REPRO_BENCH_QUICK=1`` (or ``benchmarks/run_bench.py --quick``)
for the smoke-sized workload.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.api import FloodSession, FloodSpec
from repro.fastpath import sweep
from repro.graphs import erdos_renyi
from repro.parallel import worker_count

from conftest import record

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

NODES = 1_000 if QUICK else 10_000
BATCH = 64 if QUICK else 256
REPEATS = 5
OVERHEAD_LIMIT = 1.15 if QUICK else 1.05
"""Facade wall-clock budget relative to the direct sweep (<5% full)."""


@pytest.fixture(scope="module")
def workload():
    """The scaling family the sweep benchmarks standardise on."""
    graph = erdos_renyi(NODES, min(1.0, 8.0 / NODES), seed=NODES, connected=True)
    sets = [[v] for v in graph.nodes()[:BATCH]]
    specs = [FloodSpec(graph=graph, sources=(v,)) for v, in sets]
    return graph, sets, specs


def test_ext_api_facade_overhead(benchmark, workload):
    """FloodSession.sweep must stay within OVERHEAD_LIMIT of sweep()."""
    graph, sets, specs = workload

    with FloodSession(workers=0) as session:
        # Warm both code paths (index freeze, send-mask memo) before
        # timing, then alternate direct/facade best-of-N so neither
        # side owns the cold caches.
        direct_runs = sweep(graph, sets)
        facade_results = session.sweep(specs)
        assert [result.raw for result in facade_results] == direct_runs

        direct_best = None
        facade_best = None
        for _ in range(REPEATS):
            started = time.perf_counter()
            sweep(graph, sets)
            elapsed = time.perf_counter() - started
            if direct_best is None or elapsed < direct_best:
                direct_best = elapsed

            started = time.perf_counter()
            session.sweep(specs)
            elapsed = time.perf_counter() - started
            if facade_best is None or elapsed < facade_best:
                facade_best = elapsed

        facade_timed = benchmark.pedantic(
            session.sweep, args=(specs,), rounds=1, iterations=1
        )
        assert [result.raw for result in facade_timed] == direct_runs
        facade_best = min(facade_best, benchmark.stats.stats.min)

    overhead = facade_best / direct_best
    assert overhead <= OVERHEAD_LIMIT, (
        f"FloodSession.sweep costs {overhead:.3f}x the direct sweep() "
        f"on {NODES} nodes x {BATCH} runs (limit {OVERHEAD_LIMIT}x)"
    )
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend="auto",
        batch=BATCH,
        serial_seconds=direct_best,
        facade_overhead=round(overhead, 4),
    )


def test_ext_api_facade_pooled(benchmark, workload):
    """The facade's pooled plan: bit-identical, ratio recorded."""
    graph, sets, specs = workload

    with FloodSession(workers=0) as serial_session:
        started = time.perf_counter()
        serial_results = serial_session.sweep(specs)
        serial_seconds = time.perf_counter() - started

    def pooled_sweep():
        with FloodSession(workers=2) as session:
            return session.sweep(specs)

    pooled_results = benchmark.pedantic(pooled_sweep, rounds=1, iterations=1)
    assert [result.raw for result in pooled_results] == [
        result.raw for result in serial_results
    ]

    speedup = serial_seconds / benchmark.stats.stats.min
    cores = worker_count()
    if cores >= 4 and not QUICK:
        assert speedup >= 1.0, (
            f"2-worker facade sweep regressed to {speedup:.2f}x "
            f"on {cores} usable cores"
        )
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend="auto",
        batch=BATCH,
        workers=2,
        usable_cores=cores,
        serial_seconds=serial_seconds,
        speedup=round(speedup, 2),
    )
