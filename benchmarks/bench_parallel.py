"""EXT-PAR: the sharded sweep pool and the auto-selected engines at scale.

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
* ``auto_long_floods`` -- ``backend=None`` on a long odd-cycle batch,
  asserted within 1.1x of naming the fastest engine (pure) explicitly;
* ``one_shot_mode`` -- auto ``parallel_sweep`` against forced serial
  and a forced fresh pool on three shapes either side of the
  ``MIN_PARALLEL_BATCH`` pass floor, asserted within 1.2x of the faster
  forced mode on >= 2 usable cores.

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
from repro.core import all_pairs_termination
from repro.fastpath import IndexedGraph, sweep
from repro.fastpath.engine import batch_passes, batch_specs, resolve_batch
from repro.graphs import cycle_graph, erdos_renyi
from repro.parallel import (
    MIN_PARALLEL_BATCH,
    SweepPool,
    default_chunksize,
    parallel_sweep,
    worker_count,
)

from conftest import record, timed_pedantic

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

    runs, parallel_seconds = timed_pedantic(
        benchmark,
        parallel_sweep,
        args=(graph, source_sets),
        kwargs={"workers": workers, "chunksize": chunksize},
    )
    _assert_identical(serial_runs, runs)

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
        runs, pool_seconds = timed_pedantic(
            benchmark, pool.sweep_specs, args=(specs,)
        )
    _assert_identical(serial_runs, runs)
    speedup = serial_seconds / pool_seconds
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


def test_ext_par_auto_long_floods(benchmark):
    """``backend=None`` on the paper's worst-case family vs explicit pure.

    Odd cycles flood for n rounds.  The fastest engine there is pure:
    every flood sends at most one message per cover edge, so its total
    work is O(n + m + rounds), and it beats the per-round numpy
    engine.  The timed region is bare
    ``sweep_specs`` with ``backend=None``; the baseline is the same
    batch with ``backend="pure"`` named explicitly.  Both workloads
    assert that ``backend=None`` resolves to pure with bit-identical
    statistics; the full workload also asserts the auto-selected batch
    stays within 1.1x of the explicit one (min of interleaved
    repetitions, so one noisy pass cannot decide the ratio).  The quick
    workload records the ratio only: when both sides run the same
    engine, a 10% bound on a shared small runner measures noise.
    """
    from repro.fastpath import sweep_specs
    from repro.graphs import cycle_graph

    n = 1_023 if QUICK else 4_095  # odd -> terminates in exactly n rounds
    batch = 64 if QUICK else 256
    repeats = 5 if QUICK else 3
    graph = cycle_graph(n)
    nodes = graph.nodes()
    auto_specs = [FloodSpec(graph, (nodes[i],)) for i in range(batch)]
    pure_specs = [spec.replace(backend="pure") for spec in auto_specs]

    runs, auto_first = timed_pedantic(benchmark, sweep_specs, args=(auto_specs,))
    pure_runs = sweep_specs(pure_specs)

    def timed(specs):
        started = time.perf_counter()
        sweep_specs(specs)
        return time.perf_counter() - started

    auto_times = [auto_first]
    pure_times = []
    for repeat in range(repeats):
        pure_times.append(timed(pure_specs))
        if repeat:
            auto_times.append(timed(auto_specs))
    assert all(run.termination_round == n for run in runs)
    assert [run.round_edge_counts for run in runs] == [
        run.round_edge_counts for run in pure_runs
    ]
    auto_backend = runs[0].backend
    assert auto_backend == "pure"
    auto_seconds = min(auto_times)
    pure_seconds = min(pure_times)
    ratio = auto_seconds / pure_seconds
    assert QUICK or ratio <= 1.1, (
        f"backend=None took {ratio:.2f}x explicit pure on C{n} x {batch} "
        f"(resolved to {auto_backend})"
    )
    record(
        benchmark,
        nodes=n,
        edges=graph.num_edges,
        backend="auto",
        batch=batch,
        workers=0,
        auto_backend=auto_backend,
        pure_seconds=round(pure_seconds, 4),
        baseline="pure",
        speedup=round(pure_seconds / auto_seconds, 2),
    )


def _pairs_er2000():
    graph = erdos_renyi(2_000, 8 / 2_000, seed=7, connected=True)
    return graph, [list(pair) for pair, _ in all_pairs_termination(graph, 512)]


def _numpy_er10k():
    graph = erdos_renyi(10_000, 8 / 10_000, seed=10_000, connected=True)
    return graph, [[v] for v in graph.nodes()[:2_048]]


def _pure_c4095():
    graph = cycle_graph(4_095)
    return graph, [[v] for v in graph.nodes()[:64]]


ONE_SHOT_SHAPES = {
    # shape id: (builder, the mode the pass floor picks on >= 2 cores)
    "er2000-pairs512": (_pairs_er2000, "serial"),
    "er10k-numpy2048": (_numpy_er10k, "pool"),
    "c4095-pure64": (_pure_c4095, "pool"),
}


@pytest.mark.parametrize("shape", sorted(ONE_SHOT_SHAPES))
def test_ext_par_one_shot_mode(benchmark, shape):
    """Auto ``parallel_sweep`` against both forced modes of one call.

    A one-shot call builds, feeds and reaps a fresh pool, so auto mode
    pools only batches of at least ``MIN_PARALLEL_BATCH`` engine passes
    (``batch_passes``: 64 runs a pass on the word-packed numpy engine,
    one a run on pure).  The three shapes sit either side of that
    floor: the capped all-pairs batch of ``all_pairs_termination`` on
    ER-2000 (8 passes), ER-10k x 2048 numpy sources (32 passes) and
    C4095 x 64 pure sources (64 passes).  The baseline is the faster of
    the two forced modes, serial ``sweep`` (``sweep_specs`` over the
    same ``batch_specs``) and ``parallel_sweep(workers=cores)``, which
    always forks a fresh pool: the rule must pick the faster path, so
    auto is asserted within 1.2x of that baseline.  Interleaved, best of
    3; every mode's results are asserted identical first.  The same
    shapes run in quick mode.  With fewer than 2 usable cores there is
    no pool to choose, so the row records ``floor_skipped`` and why.
    """
    build, expected_mode = ONE_SHOT_SHAPES[shape]
    graph, source_sets = build()
    cores = worker_count()
    key, id_lists, _ = resolve_batch(
        batch_specs(graph, source_sets), IndexedGraph.of(graph)
    )
    passes = batch_passes(key, len(id_lists))
    auto_mode = (
        "pool" if cores > 1 and passes >= MIN_PARALLEL_BATCH else "serial"
    )

    serial_runs = sweep(graph, source_sets)  # also warms the parent's caches
    floor_skipped = cores < 2
    if not floor_skipped:
        # The first one or two fresh pools a process forks after
        # building a large graph run up to ~1.7x slower than later ones
        # (ER-10k x 2048 on a 2-core VM); keep that out of every mode.
        for _ in range(2):
            parallel_sweep(graph, source_sets, workers=cores)
    runs, auto_first = timed_pedantic(
        benchmark, parallel_sweep, args=(graph, source_sets)
    )
    _assert_identical(serial_runs, runs)

    def timed(call):
        started = time.perf_counter()
        result = call()
        return time.perf_counter() - started, result

    auto_times = [auto_first]
    serial_times = []
    pool_times = []
    for repeat in range(3):
        serial_times.append(timed(lambda: sweep(graph, source_sets))[0])
        if not floor_skipped:
            seconds, pool_runs = timed(
                lambda: parallel_sweep(graph, source_sets, workers=cores)
            )
            _assert_identical(serial_runs, pool_runs)
            pool_times.append(seconds)
        if repeat:
            auto_times.append(timed(lambda: parallel_sweep(graph, source_sets))[0])
    auto_seconds = min(auto_times)
    serial_seconds = min(serial_times)
    info = {}
    if floor_skipped:
        baseline_seconds = serial_seconds
        info["floor_skipped"] = True
        info["skip_reason"] = f"{cores} usable core: no pool to choose"
    else:
        assert auto_mode == expected_mode, (
            f"{shape}: {passes} passes routed to {auto_mode}, "
            f"expected {expected_mode}"
        )
        pool_seconds = min(pool_times)
        baseline_seconds = min(serial_seconds, pool_seconds)
        ratio = auto_seconds / baseline_seconds
        assert ratio <= 1.2, (
            f"{shape}: auto ({auto_mode}, {passes} passes) took "
            f"{ratio:.2f}x the faster forced mode (serial "
            f"{serial_seconds * 1e3:.1f} ms, pool {pool_seconds * 1e3:.1f} ms)"
        )
        info["floor_skipped"] = False
        info["pool_seconds"] = round(pool_seconds, 4)
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend=key.backend,
        batch=len(source_sets),
        passes=passes,
        auto_mode=auto_mode,
        workers=cores,
        usable_cores=cores,
        auto_seconds=round(auto_seconds, 4),
        serial_seconds=round(serial_seconds, 4),
        baseline="fastest_forced",
        speedup=round(baseline_seconds / auto_seconds, 2),
        **info,
    )
