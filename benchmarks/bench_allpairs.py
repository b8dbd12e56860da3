"""EXT-AP: all-pairs termination and the frontier-engine crossover.

``all_pairs_termination`` floods one batch of two-source sets over a
graph.  These rows measure the two claims its ``backend=None`` batch
rests on:

* ``auto_vs_oracle_lane`` -- the acceptance row: a 2k-node ER graph of
  mean degree 8 with a 512-pair cap, through ``all_pairs_termination``
  (auto-selected frontier engine) vs the same pairs through its former
  lane, ``parallel_sweep(..., backend="oracle")`` (the word-packed
  bitset cover sweep), round-for-round identical, **>= 2x** asserted on
  the full workload;
* ``bitset_lane_vs_per_source`` -- what keeps the bitset lane: an
  explicit ``backend="oracle"`` batch through ``sweep`` (the word-packed
  cover sweep from ``BITSET_MIN_BATCH`` runs up) vs one per-source
  oracle BFS per set, at the threshold batch and at the full pair cap;
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
from repro.fastpath import IndexedGraph, oracle_backend, select_backend, sweep
from repro.fastpath.engine import BITSET_MIN_BATCH
from repro.fastpath.numpy_backend import HAS_NUMPY
from repro.graphs import cycle_graph, erdos_renyi
from repro.parallel import parallel_sweep
from repro.sync.engine import default_round_budget

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


def test_ext_ap_auto_vs_oracle_lane(benchmark, allpairs_workload):
    """``all_pairs_termination`` vs its former oracle lane, same pairs.

    The timed region is the real API: ``all_pairs_termination`` indexes
    the graph, enumerates the pairs and runs one ``backend=None``
    ``parallel_sweep``.  The baseline is the lane it used to hard-code,
    ``parallel_sweep(graph, pairs, backend="oracle")`` -- the same tier
    and pool rules, with deterministic batches on the word-packed
    bitset cover sweep -- which was the fastest oracle lane available.
    Round-for-round equality is asserted before any timing claim; both
    sides take the min of interleaved repetitions.
    """
    graph = allpairs_workload
    result, auto_first = timed_pedantic(
        benchmark,
        all_pairs_termination,
        args=(graph,),
        kwargs={"pair_limit": PAIRS},
    )
    assert len(result) == PAIRS
    pairs = [pair for pair, _ in result]
    oracle_runs = parallel_sweep(graph, pairs, backend="oracle")
    assert [rounds for _, rounds in result] == [
        run.termination_round for run in oracle_runs
    ]

    def timed(call):
        started = time.perf_counter()
        call()
        return time.perf_counter() - started

    auto_times = [auto_first]
    oracle_times = []
    for repeat in range(3):
        oracle_times.append(
            timed(lambda: parallel_sweep(graph, pairs, backend="oracle"))
        )
        if repeat:
            auto_times.append(
                timed(lambda: all_pairs_termination(graph, pair_limit=PAIRS))
            )
    auto_seconds = min(auto_times)
    oracle_seconds = min(oracle_times)
    speedup = oracle_seconds / auto_seconds
    if not QUICK:
        assert speedup >= 2.0, (
            f"all_pairs_termination only {speedup:.2f}x over the oracle "
            f"lane on {PAIRS} pairs of a {NODES}-node graph"
        )
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend="auto",
        auto_backend=select_backend(IndexedGraph.of(graph), None),
        batch=PAIRS,
        auto_seconds=round(auto_seconds, 4),
        oracle_lane_seconds=round(oracle_seconds, 4),
        baseline="oracle_lane",
        speedup=round(speedup, 2),
    )


@pytest.mark.skipif(not HAS_NUMPY, reason="the bitset lane needs numpy")
@pytest.mark.parametrize("batch", [BITSET_MIN_BATCH, PAIRS])
def test_ext_ap_bitset_lane_vs_per_source(
    benchmark, allpairs_workload, batch
):
    """Explicit oracle batches: the bitset lane vs the per-source oracle.

    The timed region is ``sweep(graph, pairs, backend="oracle")``, which
    sends a deterministic batch of ``BITSET_MIN_BATCH`` or more runs down
    the word-packed cover sweep.  The baseline is one
    ``oracle_backend.run`` per pair over the same index and budget --
    what smaller batches run.  Round-for-round equality is asserted
    before any timing claim; both sides take the min of interleaved
    repetitions.  The full workload asserts the lane wins at the
    threshold batch (so ``BITSET_MIN_BATCH`` is not set too low) and by
    >= 5x at the pair cap.
    """
    graph = allpairs_workload
    pairs = [
        pair for pair, _ in all_pairs_termination(graph, pair_limit=batch)
    ]
    runs, bitset_first = timed_pedantic(
        benchmark, sweep, args=(graph, pairs), kwargs={"backend": "oracle"}
    )
    index = IndexedGraph.of(graph)
    budget = default_round_budget(graph)
    id_lists = [index.resolve_sources(pair) for pair in pairs]

    def per_source():
        return [
            oracle_backend.run(
                index, ids, budget, collect_senders=False, collect_receives=False
            )
            for ids in id_lists
        ]

    assert [run.termination_round for run in runs] == [
        len(raw[1]) for raw in per_source()
    ]

    def timed(call):
        started = time.perf_counter()
        call()
        return time.perf_counter() - started

    bitset_times = [bitset_first]
    per_source_times = []
    for repeat in range(3):
        per_source_times.append(timed(per_source))
        if repeat:
            bitset_times.append(
                timed(lambda: sweep(graph, pairs, backend="oracle"))
            )
    bitset_seconds = min(bitset_times)
    per_source_seconds = min(per_source_times)
    speedup = per_source_seconds / bitset_seconds
    if not QUICK:
        floor = 5.0 if batch == PAIRS else 1.0
        assert speedup >= floor, (
            f"bitset lane only {speedup:.2f}x over the per-source oracle "
            f"on {batch} pairs of a {NODES}-node graph"
        )
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend="oracle",
        batch=batch,
        workers=0,
        bitset_seconds=round(bitset_seconds, 4),
        per_source_seconds=round(per_source_seconds, 4),
        baseline="per_source",
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
