"""EXT-PAR: the sharded sweep pool and the oracle fast lane at scale.

The paper's batch experiment families (all-pairs termination, the
initial-conditions census) are sweeps of hundreds-to-thousands of
independent runs over one graph.  These rows measure the two scaling
levers PR 2 added on the acceptance workload -- a 10k-node ER graph
(mean degree 8, the trajectory's scaling family) with a 256-source-set
batch:

* ``serial`` -- the single-process :func:`repro.fastpath.sweep`
  baseline;
* ``workers=2 / workers=4`` -- :func:`repro.parallel.parallel_sweep`
  over real worker pools, asserted bit-identical to serial every time;
* ``oracle`` -- ``backend="oracle"``: per-run cost drops from
  O(m x rounds) to O(n + m), asserted equal to the frontier engine on
  every termination round and message count.

The >= 2x four-worker speedup assertion is gated on the machine
actually having >= 4 usable cores (container CI often pins one); the
measured ratio and the usable-core count are recorded in the row either
way, so the trajectory stays honest about the hardware it ran on.

Set ``REPRO_BENCH_QUICK=1`` (or run ``benchmarks/run_bench.py
--quick``) to shrink the workload to a smoke-sized batch.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.api import FloodSpec
from repro.fastpath import sweep
from repro.graphs import erdos_renyi
from repro.parallel import (
    SweepPool,
    default_chunksize,
    parallel_sweep,
    worker_count,
)

from conftest import record

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
FORCE_FAIL = os.environ.get("REPRO_BENCH_FORCE_FAIL", "") not in ("", "0")

NODES = 1_000 if QUICK else 10_000
BATCH = 64 if QUICK else 256


def test_ext_par_forced_failure(benchmark):
    """Exit-code canary: a benchmark assertion that fails on demand.

    ``REPRO_BENCH_FORCE_FAIL=1`` arms it; the regression test in
    ``tests/integration/test_run_bench_gate.py`` then checks that
    ``run_bench.py --quick`` exits non-zero -- i.e. that a failing
    benchmark assertion actually fails the CI smoke job.  Unarmed (the
    normal case, including CI) it just skips.
    """
    if not FORCE_FAIL:
        pytest.skip("canary unarmed; set REPRO_BENCH_FORCE_FAIL=1 to arm")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert False, "forced benchmark assertion failure (exit-code canary)"


@pytest.fixture(scope="module")
def workload():
    """The acceptance workload: 10k-node ER graph, 256 source sets."""
    graph = erdos_renyi(NODES, min(1.0, 8.0 / NODES), seed=NODES, connected=True)
    source_sets = [[v] for v in graph.nodes()[:BATCH]]
    return graph, source_sets


@pytest.fixture(scope="module")
def serial_baseline(workload):
    """Best-of-3 serial wall time plus the reference results."""
    graph, source_sets = workload
    best = None
    runs = None
    for _ in range(3):
        started = time.perf_counter()
        runs = sweep(graph, source_sets)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best, runs


def _assert_identical(serial_runs, parallel_runs):
    assert len(serial_runs) == len(parallel_runs)
    for left, right in zip(serial_runs, parallel_runs):
        assert (
            left.sources,
            left.terminated,
            left.termination_round,
            left.total_messages,
            left.round_edge_counts,
        ) == (
            right.sources,
            right.terminated,
            right.termination_round,
            right.total_messages,
            right.round_edge_counts,
        )


def test_ext_par_sweep_serial(benchmark, workload, serial_baseline):
    """The single-process baseline row for the sharded-sweep trajectory."""
    graph, source_sets = workload
    runs = benchmark.pedantic(
        sweep, args=(graph, source_sets), rounds=1, iterations=1
    )
    assert all(run.terminated for run in runs)
    serial_seconds, _ = serial_baseline
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend=runs[0].backend,
        batch=len(source_sets),
        workers=0,
        serial_seconds=serial_seconds,
    )


@pytest.mark.parametrize("workers", [2, 4])
def test_ext_par_sweep_sharded(benchmark, workload, serial_baseline, workers):
    """Sharded sweeps: bit-identical to serial, speedup recorded.

    Pool construction (fork + one index pickle per worker) is kept
    *inside* the timed region -- that is the cost a fresh
    ``parallel_sweep`` call actually pays.
    """
    graph, source_sets = workload
    serial_seconds, serial_runs = serial_baseline
    chunksize = default_chunksize(len(source_sets), workers)

    runs = benchmark.pedantic(
        parallel_sweep,
        args=(graph, source_sets),
        kwargs={"workers": workers, "chunksize": chunksize},
        rounds=1,
        iterations=1,
    )
    _assert_identical(serial_runs, runs)

    parallel_seconds = benchmark.stats.stats.min
    speedup = serial_seconds / parallel_seconds
    cores = worker_count()
    # Arm only on the full workload: the smoke-sized batch is dominated
    # by pool start-up, so on a multi-core CI runner the quick lane
    # would fail without any real regression.  Ratio recorded always.
    if workers == 4 and cores >= 4 and not QUICK:
        assert speedup >= 2.0, (
            f"4-worker sweep only {speedup:.2f}x over serial "
            f"on {cores} usable cores"
        )
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend=runs[0].backend,
        batch=len(source_sets),
        workers=workers,
        chunksize=chunksize,
        usable_cores=cores,
        serial_seconds=serial_seconds,
        speedup=round(speedup, 2),
    )


def test_ext_par_sweep_warm_pool(benchmark, workload, serial_baseline):
    """The serving shape: batch cost through an already-warm pool."""
    graph, source_sets = workload
    serial_seconds, serial_runs = serial_baseline
    specs = [FloodSpec(graph, tuple(sources)) for sources in source_sets]
    with SweepPool(graph, workers=2) as pool:
        pool.sweep_specs(specs[:2])  # prime worker state
        runs = benchmark.pedantic(
            pool.sweep_specs, args=(specs,), rounds=1, iterations=1
        )
    _assert_identical(serial_runs, runs)
    speedup = serial_seconds / benchmark.stats.stats.min
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend=runs[0].backend,
        batch=len(source_sets),
        workers=2,
        usable_cores=worker_count(),
        serial_seconds=serial_seconds,
        speedup=round(speedup, 2),
    )


def test_ext_par_oracle_long_floods(benchmark):
    """The oracle fast lane vs the default engine on round-heavy graphs.

    On the paper's worst-case families (odd cycles: n rounds) the
    auto-selected engine for a graph this size is numpy, which pays
    O(arcs x rounds); the oracle stays O(n + m) total and wins by an
    order of magnitude.  The pure engine is also timed and recorded for
    honesty -- thanks to the cover bound (every flood sends at most one
    message per cover edge) its *total* work is O(n + m + rounds) too,
    so it stays within a small constant of the oracle; the oracle's
    value on top is the independent implementation and the
    round-count-free guarantee without knowing the topology class in
    advance.
    """
    from repro.fastpath import IndexedGraph, select_backend
    from repro.graphs import cycle_graph

    n = 513 if QUICK else 4_095  # odd -> terminates in exactly n rounds
    graph = cycle_graph(n)
    sets = [[v] for v in graph.nodes()[:16]]
    auto_backend = select_backend(IndexedGraph.of(graph), None)

    runs = benchmark.pedantic(
        sweep, args=(graph, sets), kwargs={"backend": "oracle"}, rounds=1,
        iterations=1,
    )
    assert all(run.termination_round == n for run in runs)

    def timed(backend):
        started = time.perf_counter()
        frontier_runs = sweep(graph, sets, backend=backend)
        elapsed = time.perf_counter() - started
        assert [r.termination_round for r in frontier_runs] == [
            r.termination_round for r in runs
        ]
        assert [r.total_messages for r in frontier_runs] == [
            r.total_messages for r in runs
        ]
        return elapsed

    auto_seconds = timed(auto_backend)
    pure_seconds = timed("pure")

    oracle_seconds = benchmark.stats.stats.min
    speedup = auto_seconds / oracle_seconds
    if auto_backend != "pure":
        assert speedup >= 2.0, (
            f"oracle only {speedup:.2f}x over auto-selected "
            f"{auto_backend} on C{n}"
        )
    record(
        benchmark,
        nodes=n,
        edges=graph.num_edges,
        backend="oracle",
        batch=len(sets),
        workers=0,
        auto_backend=auto_backend,
        serial_seconds=auto_seconds,
        pure_seconds=round(pure_seconds, 4),
        speedup=round(speedup, 2),
    )


def test_ext_par_sweep_oracle(benchmark, workload, serial_baseline):
    """The oracle lane on the ER acceptance workload, agreement asserted.

    On this family floods last ~8 rounds, so the vectorised frontier
    engine is the faster choice and the recorded speedup sits below 1 --
    kept in the trajectory to document the crossover that
    ``test_ext_par_oracle_long_floods`` shows from the other side.
    """
    graph, source_sets = workload
    serial_seconds, serial_runs = serial_baseline
    runs = benchmark.pedantic(
        sweep,
        args=(graph, source_sets),
        kwargs={"backend": "oracle"},
        rounds=1,
        iterations=1,
    )
    for frontier, oracle in zip(serial_runs, runs):
        assert oracle.termination_round == frontier.termination_round
        assert oracle.total_messages == frontier.total_messages
    speedup = serial_seconds / benchmark.stats.stats.min
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend="oracle",
        batch=len(source_sets),
        workers=0,
        serial_seconds=serial_seconds,
        speedup=round(speedup, 2),
    )
