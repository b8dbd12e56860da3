"""EXT-SVC: the async flood-query service, loaded and unloaded.

The serving rows: 256 concurrent single-source queries through a
:class:`~repro.service.FloodService` over a warm 4-worker pool, and the
same traffic in serial mode (``workers=0``), so the trajectory
separates the batching win from the multi-core win.  Their ``speedup``
is against the best alternative that answers the same sources: one
serial :func:`repro.fastpath.sweep` of them (same engine, no service
layer, no pool).  The ratio against the naive per-query server -- a
sequential loop of :func:`repro.core.simulate` calls -- is kept as the
separate ``speedup_vs_simulate`` field; the >= 2x assertion on it arms
only when the machine has >= 4 usable cores (1-core CI boxes cannot
show a parallel win).  perfbench's ``serve_*`` workloads gate serving
throughput and latency end to end; these rows only re-measure it.

The unloaded row (``test_ext_svc_lone_query``) times sequential lone
``query_spec`` calls -- one in flight at a time, so the adaptive flush
sends each on the next loop tick instead of waiting out the window --
against :meth:`repro.api.FloodSession.run` of the same specs, the same
engine without the service layer.  Its <= 1.5x latency bound is
asserted on every run: nothing in it depends on core count.

Set ``REPRO_BENCH_QUICK=1`` (or ``run_bench.py --quick``) for the
smoke-sized workload.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time

import pytest

from repro.api import FloodSession, FloodSpec
from repro.core import simulate
from repro.fastpath import sweep
from repro.graphs import erdos_renyi
from repro.parallel import worker_count
from repro.service import FloodService

from conftest import record, timed_pedantic

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

NODES = 500 if QUICK else 4_000
QUERIES = 64 if QUICK else 256
LONE_NODES = 200
LONE_PASSES = 2 if QUICK else 5
LONE_MAX_RATIO = 1.5


@pytest.fixture(scope="module")
def workload():
    """The serving workload: one ER topology, many single-source queries."""
    graph = erdos_renyi(NODES, 8.0 / NODES, seed=NODES, connected=True)
    sources = graph.nodes()[:QUERIES]
    return graph, sources


@pytest.fixture(scope="module")
def sequential_baseline(workload):
    """Best-of-3 wall time of the naive server: sequential simulate()."""
    graph, sources = workload
    best = None
    runs = None
    for _ in range(3):
        started = time.perf_counter()
        runs = [simulate(graph, [source]) for source in sources]
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best, runs


@pytest.fixture(scope="module")
def serial_sweep_baseline(workload):
    """Best-of-3 wall time of the best alternative: one serial sweep."""
    graph, sources = workload
    source_sets = [[source] for source in sources]
    best = None
    for _ in range(3):
        started = time.perf_counter()
        sweep(graph, source_sets)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best


def serve_all(graph, sources, workers):
    """One service lifetime: register, fire all queries concurrently."""

    async def main():
        async with FloodService(workers=workers, batch_window=0.001) as svc:
            svc.register(graph)
            runs = await asyncio.gather(
                *(
                    svc.query_spec(FloodSpec(graph=graph, sources=(source,)))
                    for source in sources
                )
            )
            return runs, svc.stats

    return asyncio.run(main())


def _assert_matches_serial(graph, sources, runs):
    """Service results must equal the serial sweep, request by request."""
    serial = sweep(graph, [[s] for s in sources], backend=runs[0].backend)
    for expected, actual in zip(serial, runs):
        assert expected.sources == actual.sources
        assert expected.terminated == actual.terminated
        assert expected.termination_round == actual.termination_round
        assert expected.total_messages == actual.total_messages
        assert expected.round_edge_counts == actual.round_edge_counts


def test_ext_svc_concurrent_queries(
    benchmark, workload, sequential_baseline, serial_sweep_baseline
):
    """The loaded row: 256 concurrent queries over a 4-worker pool.

    Service construction, pool warm-up and close are all inside the
    timed region -- the cost one serving process pays end to end.
    """
    graph, sources = workload
    sequential_seconds, sequential_runs = sequential_baseline

    (runs, stats), service_seconds = timed_pedantic(
        benchmark, serve_all, args=(graph, sources, 4)
    )
    _assert_matches_serial(graph, sources, runs)
    for reference, served in zip(sequential_runs, runs):
        assert reference.termination_round == served.termination_round
        assert reference.total_messages == served.total_messages
    assert stats.queries == len(sources)
    assert stats.mean_batch_size() > 1.0, "no coalescing happened"

    vs_simulate = sequential_seconds / service_seconds
    cores = worker_count()
    # Arm only on the full workload: the smoke-sized batch cannot
    # amortise pool fork/warm-up/close inside the timed region, so the
    # assertion would fail on any multi-core CI runner for reasons that
    # have nothing to do with a regression.  The ratio is recorded in
    # quick mode regardless.
    if cores >= 4 and not QUICK:
        assert vs_simulate >= 2.0, (
            f"service only {vs_simulate:.2f}x over sequential simulate() "
            f"on {cores} usable cores"
        )
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend=runs[0].backend,
        batch=len(sources),
        workers=4,
        usable_cores=cores,
        serial_seconds=serial_sweep_baseline,
        baseline="serial_sweep",
        speedup=round(serial_sweep_baseline / service_seconds, 2),
        simulate_seconds=sequential_seconds,
        speedup_vs_simulate=round(vs_simulate, 2),
        mean_batch=round(stats.mean_batch_size(), 1),
    )


def test_ext_svc_serial_mode(
    benchmark, workload, sequential_baseline, serial_sweep_baseline
):
    """The batching-only row: workers=0 (in-process), same concurrency.

    Against the serial sweep this is the service layer's whole cost
    (admission, batching, executor hand-off) on the same engine; it
    documents service overhead on 1-core machines honestly.
    """
    graph, sources = workload
    sequential_seconds, _ = sequential_baseline

    (runs, stats), service_seconds = timed_pedantic(
        benchmark, serve_all, args=(graph, sources, 0)
    )
    _assert_matches_serial(graph, sources, runs)
    assert stats.queries == len(sources)

    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend=runs[0].backend,
        batch=len(sources),
        workers=0,
        usable_cores=worker_count(),
        serial_seconds=serial_sweep_baseline,
        baseline="serial_sweep",
        speedup=round(serial_sweep_baseline / service_seconds, 2),
        simulate_seconds=sequential_seconds,
        speedup_vs_simulate=round(sequential_seconds / service_seconds, 2),
        mean_batch=round(stats.mean_batch_size(), 1),
    )


def lone_queries(specs, passes):
    """Interleave lone service queries with session runs of the same specs.

    One query is in flight at a time, so the service is idle at every
    submission.  Each spec is timed through ``FloodService(workers=0)
    .query_spec`` and ``FloodSession(workers=0).run`` back to back, so
    both sides see the same machine noise.  Returns the two latency
    lists and the last pass's service runs and session results.
    """

    async def main():
        service_times, session_times = [], []
        with FloodSession(workers=0) as session:
            async with FloodService(workers=0) as service:
                # Untimed warm-up: index build, executor thread start.
                await service.query_spec(specs[0])
                session.run(specs[0])
                for _ in range(passes):
                    served, results = [], []
                    for spec in specs:
                        started = time.perf_counter()
                        results.append(session.run(spec))
                        session_times.append(time.perf_counter() - started)
                        started = time.perf_counter()
                        served.append(await service.query_spec(spec))
                        service_times.append(time.perf_counter() - started)
        return service_times, session_times, served, results

    return asyncio.run(main())


def test_ext_svc_lone_query(benchmark):
    """The unloaded row: a lone query's p50 through the service vs
    ``FloodSession.run`` on the same specs (ER-200, ``workers=0``).

    The baseline is the best alternative for one query: the same
    fast-path engine and backend rule without admission, batching or
    the executor hand-off.  No parallelism is involved, so the <= 1.5x
    bound is asserted in the quick lane too.
    """
    graph = erdos_renyi(
        LONE_NODES, 8.0 / LONE_NODES, seed=LONE_NODES, connected=True
    )
    specs = [FloodSpec(graph=graph, sources=(v,)) for v in graph.nodes()]
    service_times, session_times, served, results = benchmark.pedantic(
        lone_queries, args=(specs, LONE_PASSES), rounds=1, iterations=1
    )
    for result, run in zip(results, served):
        assert result.raw.sources == run.sources
        assert result.raw.backend == run.backend
        assert result.raw.termination_round == run.termination_round
        assert result.raw.total_messages == run.total_messages
        assert result.raw.round_edge_counts == run.round_edge_counts

    service_p50 = statistics.median(service_times)
    session_p50 = statistics.median(session_times)
    ratio = service_p50 / session_p50
    assert ratio <= LONE_MAX_RATIO, (
        f"lone query p50 {service_p50 * 1e3:.3f} ms is {ratio:.2f}x "
        f"FloodSession.run's {session_p50 * 1e3:.3f} ms"
    )
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend=served[0].backend,
        workers=0,
        service_p50_ms=round(service_p50 * 1e3, 4),
        session_p50_ms=round(session_p50 * 1e3, 4),
        baseline="session_run",
        speedup=round(session_p50 / service_p50, 2),
    )
