"""EXT-SCALE: what amnesia costs -- AF vs classic flooding vs BFS.

The ablation behind the paper's motivation: amnesiac flooding uses zero
persistent bits but pays up to 2x messages and up to 2D + 1 rounds on
non-bipartite graphs, while the seen-flag baseline stops within
e(source) + 1 rounds with one transmission per node.  Expected shape:
overhead factor 1.0 on bipartite families, approaching 2x messages on
odd cycles and cliques.

Also home to the fast-path scaling rows: the CSR backends of
:mod:`repro.fastpath` against the set-based reference simulator, with
the 10k-node speedup floor asserted, and the word-packed numpy batch
against a pure sweep (these are the rows ``benchmarks/run_bench.py``
trims into ``BENCH_fastpath.json``).
"""

import time

import pytest

from repro.api import FloodSpec
from repro.baselines import compare_on
from repro.core import simulate, simulate_reference
from repro.fastpath import IndexedGraph, available_backends, run_spec, sweep_specs
from repro.graphs import cycle_graph, erdos_renyi

from conftest import record


def _scaling_graph(n: int):
    """The seeded ER family used by every scaling row (mean degree 8)."""
    return erdos_renyi(n, min(1.0, 8.0 / n), seed=n, connected=True)


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_ext_scale_af_on_growing_er_graphs(benchmark, n):
    """Raw simulator throughput on growing ER graphs (public entry point)."""
    graph = _scaling_graph(n)
    run = benchmark(simulate, graph, [0])
    assert run.terminated
    record(
        benchmark,
        nodes=n,
        edges=graph.num_edges,
        measured_rounds=run.termination_round,
    )


def _best_of_interleaved(fast_side, slow_side, repeats=7):
    """Interleaved best-of-N wall times with the cyclic GC paused.

    The two sides alternate within one timed session so CPU-frequency
    and scheduler drift hit both equally, and the GC is paused so the
    suite's accumulated garbage cannot trigger collections inside the
    ~20 ms timed regions.  Returns ``(fast_best, fast_result,
    slow_best, slow_result)``.
    """
    import gc

    fast_best = slow_best = None
    fast_result = slow_result = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            fast_result = fast_side()
            elapsed = time.perf_counter() - started
            if fast_best is None or elapsed < fast_best:
                fast_best = elapsed
            started = time.perf_counter()
            slow_result = slow_side()
            elapsed = time.perf_counter() - started
            if slow_best is None or elapsed < slow_best:
                slow_best = elapsed
    finally:
        if gc_was_enabled:
            gc.enable()
    return fast_best, fast_result, slow_best, slow_result


def test_ext_scale_fastpath_speedup_10k(benchmark):
    """The acceptance row: >= 5x over the reference on 10k nodes, pure.

    Both sides are timed interleaved best-of-N in-process (same
    interpreter state), so the asserted ratio is apples-to-apples; the
    benchmark fixture additionally samples the fast side for the JSON
    export.
    """
    graph = _scaling_graph(10_000)
    # A freshly built index keeps its CSR int objects contiguous in the
    # heap; the long-lived suite-wide cache entry may have its objects
    # scattered between other benchmarks' allocations, which costs ~50%
    # on this 20 ms measurement without changing any result.
    index = IndexedGraph(graph)

    def fast():
        return run_spec(
            FloodSpec(graph=graph, sources=(0,), backend="pure"), index
        )

    run = benchmark(fast)
    assert run.terminated

    fast_time, fast_run, reference_time, reference_run = _best_of_interleaved(
        fast, lambda: simulate_reference(graph, [0])
    )
    assert fast_run.termination_round == reference_run.termination_round
    assert fast_run.total_messages == reference_run.total_messages
    assert fast_run.round_edge_counts == reference_run.round_edge_counts
    speedup = reference_time / fast_time
    assert speedup >= 5.0, (
        f"pure fast path only {speedup:.1f}x over the reference simulator"
    )
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend="pure",
        measured_rounds=fast_run.termination_round,
        reference_seconds=reference_time,
        fastpath_seconds=fast_time,
        speedup=round(speedup, 2),
    )


NUMPY_BATCH_FLOOR = 5.0
"""The word-packed numpy sweep must beat a pure sweep of the batch by this."""


def test_ext_scale_fastpath_numpy_batch(benchmark):
    """Serial ER-2000 (mean degree 8) x 512: word-packed numpy vs pure.

    The baseline is a pure ``sweep_specs`` of the same 512 single-source
    specs, the fastest other engine for the batch (the oracle lanes
    lose to it on this family, see ``test_ext_ap_auto_vs_oracle_lane``).
    Both sides run serially and interleaved in one process, so the
    floor does not depend on the core count.
    """
    graph = _scaling_graph(2_000)
    nodes = graph.nodes()
    index = IndexedGraph.of(graph)

    def specs(backend):
        return [
            FloodSpec(graph=graph, sources=(nodes[k],), backend=backend)
            for k in range(512)
        ]

    numpy_specs, pure_specs = specs("numpy"), specs("pure")
    runs = benchmark(sweep_specs, numpy_specs, index)
    assert all(run.terminated for run in runs)

    numpy_time, numpy_runs, pure_time, pure_runs = _best_of_interleaved(
        lambda: sweep_specs(numpy_specs, index),
        lambda: sweep_specs(pure_specs, index),
        repeats=3,
    )
    for fast, slow in zip(numpy_runs, pure_runs):
        assert fast.round_edge_counts == slow.round_edge_counts
        assert fast.terminated == slow.terminated
    speedup = pure_time / numpy_time
    assert speedup >= NUMPY_BATCH_FLOOR, (
        f"word-packed numpy sweep only {speedup:.1f}x over a pure sweep"
    )
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend="numpy",
        batch=len(numpy_specs),
        mean_degree=8,
        numpy_seconds=round(numpy_time, 4),
        pure_seconds=round(pure_time, 4),
        baseline="pure_sweep",
        speedup=round(speedup, 2),
    )


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("n", [1024, 4096, 10_000])
def test_ext_scale_fastpath_backends(benchmark, n, backend):
    """Fast-path throughput per backend on the scaling family.

    Measures the sweep configuration (index amortised, per-round
    counters only) -- the shape ``all_pairs_termination`` and the
    censuses actually run in.
    """
    graph = _scaling_graph(n)
    IndexedGraph.of(graph)  # freeze once, outside the timed region

    def flood():
        return run_spec(FloodSpec(graph=graph, sources=(0,), backend=backend))

    run = benchmark(flood)
    assert run.terminated
    assert run.backend == backend
    record(
        benchmark,
        nodes=n,
        edges=graph.num_edges,
        backend=backend,
        measured_rounds=run.termination_round,
        messages=run.total_messages,
    )


def test_ext_scale_overhead_bipartite_vs_not(benchmark):
    """The headline comparison: overhead factors by parity class."""

    def sweep():
        rows = {
            "even-cycle-64": compare_on(cycle_graph(64), 0, "even-cycle-64"),
            "odd-cycle-63": compare_on(cycle_graph(63), 0, "odd-cycle-63"),
        }
        return rows

    rows = benchmark(sweep)
    even, odd = rows["even-cycle-64"], rows["odd-cycle-63"]
    # bipartite: no overhead at all
    assert even.round_overhead() == 1.0
    assert even.message_overhead() == 1.0
    # odd cycle: ~2x both (the paper's echo effect)
    assert odd.message_overhead() == pytest.approx(2.0, rel=0.05)
    assert odd.round_overhead() > 1.8
    record(
        benchmark,
        expected="1.0x overhead bipartite, ~2x on odd cycles",
        even_cycle_msg_overhead=even.message_overhead(),
        odd_cycle_msg_overhead=odd.message_overhead(),
        odd_cycle_round_overhead=odd.round_overhead(),
    )


def test_ext_scale_memory_vs_messages_table(benchmark):
    """Memory bits vs message cost across algorithms (the trade-off row)."""

    def build():
        return compare_on(cycle_graph(33), 0, "odd-cycle-33")

    row = benchmark(build)
    assert row.amnesiac.memory_bits == 0
    assert row.classic.memory_bits == 1
    assert row.amnesiac.messages == 2 * row.edges
    assert row.classic.messages <= 2 * row.edges
    record(
        benchmark,
        amnesiac_bits=row.amnesiac.memory_bits,
        classic_bits=row.classic.memory_bits,
        bfs_bits=row.bfs.memory_bits,
        amnesiac_messages=row.amnesiac.messages,
        classic_messages=row.classic.messages,
    )
