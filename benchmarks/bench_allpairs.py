"""EXT-AP: all-pairs termination and the frontier-engine crossover.

``all_pairs_termination`` answers the termination round of one
two-source flood per node pair.  Where the auto-selected frontier
engine is numpy it answers from the termination-only cover sweep
(``bitset_oracle.termination_rounds``); elsewhere it floods the pairs
as one ``backend=None`` ``parallel_sweep``.  These rows measure the
claims those routes rest on:

* ``termination_lane`` -- the acceptance row of the lane: a 2k-node ER
  graph of mean degree 8 with a 512-pair cap, through
  ``all_pairs_termination`` vs the same pairs through the fastest
  full-statistics alternative, ``parallel_sweep(graph, pairs)`` (the
  word-packed numpy sweep, serial at 8 passes), round-for-round
  identical, **>= 2x** asserted on the full workload;
* ``frontier_crossover`` -- the evidence behind ``select_backend``: the
  pure and numpy frontier engines timed head-to-head at three graph
  sizes and mean degree 2 / 4 / 8 / 32, so both
  ``NUMPY_ARC_THRESHOLD`` (arcs) and ``NUMPY_MIN_MEAN_DEGREE`` rest on
  measured rows.  Arc count alone picks numpy on a degree-2 cycle,
  where O(arcs)-per-round over ~n rounds is the catastrophic choice.

Set ``REPRO_BENCH_QUICK=1`` (or run ``benchmarks/run_bench.py
--quick``) to shrink the workloads; the speedup assertions only arm on
the full workload (smoke-sized batches are dominated by fixed costs).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core import all_pairs_termination
from repro.fastpath import IndexedGraph, select_backend, sweep
from repro.fastpath.numpy_backend import HAS_NUMPY
from repro.graphs import cycle_graph, erdos_renyi
from repro.parallel import parallel_sweep

from conftest import record, timed_pedantic

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

NODES = 256 if QUICK else 2_000
PAIRS = 128 if QUICK else 512
CROSSOVER_SIZES = (64, 256, 1_024) if QUICK else (256, 1_024, 4_096)


@pytest.fixture(scope="module")
def allpairs_workload():
    """The acceptance workload: 2k-node ER graph, capped pair batch."""
    graph = erdos_renyi(NODES, min(1.0, 8.0 / NODES), seed=7, connected=True)
    return graph


@pytest.mark.skipif(not HAS_NUMPY, reason="the lane needs numpy")
def test_ext_ap_termination_lane(benchmark, allpairs_workload):
    """``all_pairs_termination`` on the lane vs the full sweep it replaced.

    The timed region is the real API on a numpy-routed graph: index,
    enumerate the pairs, answer every termination round from
    ``bitset_oracle.termination_rounds``.  The baseline is the fastest
    existing way to the same answer, the route the call took before
    the lane: ``parallel_sweep(graph, pairs)``, the word-packed numpy
    engine flooding every pair with full statistics, serial at
    ceil(512 / 64) = 8 passes.  Round-for-round equality is asserted
    before any timing claim; both sides take the min of interleaved
    repetitions, and the full workload asserts **>= 2x**.  The quick
    graph (256 nodes, ~2k arcs) routes pure, so there both sides run
    the full sweep and only the equality is checked.
    """
    graph = allpairs_workload
    auto = select_backend(IndexedGraph.of(graph), None)
    result, lane_first = timed_pedantic(
        benchmark,
        all_pairs_termination,
        args=(graph,),
        kwargs={"pair_limit": PAIRS},
    )
    assert len(result) == PAIRS
    pairs = [pair for pair, _ in result]
    full_runs = parallel_sweep(graph, pairs)
    assert [rounds for _, rounds in result] == [
        run.termination_round for run in full_runs
    ]

    def timed(call):
        started = time.perf_counter()
        call()
        return time.perf_counter() - started

    lane_times = [lane_first]
    full_times = []
    for repeat in range(5):
        full_times.append(timed(lambda: parallel_sweep(graph, pairs)))
        if repeat:
            lane_times.append(
                timed(lambda: all_pairs_termination(graph, pair_limit=PAIRS))
            )
    lane_seconds = min(lane_times)
    full_seconds = min(full_times)
    speedup = full_seconds / lane_seconds
    if not QUICK:
        assert auto == "numpy"
        assert speedup >= 2.0, (
            f"the termination lane only {speedup:.2f}x over the full "
            f"sweep on {PAIRS} pairs of a {NODES}-node graph"
        )
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend=auto,
        auto_backend=auto,
        batch=PAIRS,
        workers=0,
        lane_seconds=round(lane_seconds, 4),
        full_sweep_seconds=round(full_seconds, 4),
        baseline="full_sweep",
        speedup=round(speedup, 2),
    )


@pytest.mark.skipif(not HAS_NUMPY, reason="the crossover needs both engines")
@pytest.mark.parametrize("mean_degree", [2, 4, 8, 32])
@pytest.mark.parametrize("size", CROSSOVER_SIZES)
def test_ext_ap_frontier_crossover(benchmark, size, mean_degree):
    """Pure vs numpy frontier head-to-head at fixed size and mean degree.

    Three sizes straddle ``NUMPY_ARC_THRESHOLD`` (4096 arcs): at mean
    degree 8 the smallest graph sits below it, the others above.  Four
    degrees straddle ``NUMPY_MIN_MEAN_DEGREE`` (4).  The degree-2 rows
    are the cycle family (floods last ~n rounds; numpy pays O(arcs)
    every round), the others are ER.  The timed region is the engine
    ``select_backend`` actually picks; both engines are also timed
    explicitly.  Each engine gets one untimed call first, so every
    recorded time -- the row's own and both explicit ones -- is warm:
    the first call on a graph builds the engine's per-index caches,
    which a threshold re-bench must not count.  The full-workload
    assertions pin the crossover direction at the extremes on the two
    larger sizes (degree 2: pure wins; degree 32: numpy wins); the
    other rows are recorded, unasserted -- the engines are close
    there, which is exactly why the rule needs the measured rows.
    """
    n = size
    if mean_degree == 2:
        graph = cycle_graph(n + 1)  # odd: single-source floods last n+1
    else:
        graph = erdos_renyi(
            n, min(1.0, mean_degree / n), seed=mean_degree, connected=True
        )
    index = IndexedGraph.of(graph)
    auto = select_backend(index, None)
    source_sets = [[v] for v in graph.nodes()[:8]]
    for backend in ("pure", "numpy"):
        sweep(graph, source_sets, backend=backend)  # untimed warm-up

    runs = benchmark.pedantic(
        sweep,
        args=(graph, source_sets),
        kwargs={"backend": auto},
        rounds=1,
        iterations=1,
    )
    assert all(run.terminated for run in runs)

    def timed(backend):
        started = time.perf_counter()
        other = sweep(graph, source_sets, backend=backend)
        elapsed = time.perf_counter() - started
        assert [r.termination_round for r in other] == [
            r.termination_round for r in runs
        ]
        assert [r.total_messages for r in other] == [
            r.total_messages for r in runs
        ]
        return elapsed

    pure_seconds = timed("pure")
    numpy_seconds = timed("numpy")

    if not QUICK and size > CROSSOVER_SIZES[0]:
        if mean_degree == 2:
            assert auto == "pure"
            assert pure_seconds < numpy_seconds, (
                f"pure lost to numpy on the degree-2 family "
                f"({pure_seconds:.4f}s vs {numpy_seconds:.4f}s)"
            )
        elif mean_degree == 32:
            assert auto == "numpy"
            assert numpy_seconds < pure_seconds, (
                f"numpy lost to pure at mean degree 32 "
                f"({numpy_seconds:.4f}s vs {pure_seconds:.4f}s)"
            )
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend=auto,
        batch=len(source_sets),
        workers=0,
        mean_degree=mean_degree,
        auto_backend=auto,
        pure_seconds=round(pure_seconds, 4),
        numpy_seconds=round(numpy_seconds, 4),
    )
