"""Worker-pool determinism: the sharded sweep is the serial sweep.

The contract of :mod:`repro.parallel` is that process boundaries are
invisible in the output: for every worker count and chunk size,
``parallel_sweep`` returns exactly what ``repro.fastpath.sweep``
returns -- same dataclasses, same field values, same input order --
budget cut-offs and backends included.  These tests hold that contract
on real multi-process pools (worker counts 1, 2 and 4), not just the
serial fallback.  The pass-count tests pin when auto mode forks at all:
only from ``MIN_PARALLEL_BATCH`` engine passes.
"""

from __future__ import annotations

from concurrent.futures import Future

import pytest

import repro.parallel.pool as pool_module
from repro.api import FloodSpec
from repro.core import all_pairs_termination
from repro.errors import ConfigurationError, NodeNotFoundError
from repro.fastpath import IndexedGraph, sweep
from repro.fastpath.engine import (
    BITSET_MIN_BATCH,
    batch_passes,
    dispatch_batch,
    word_packed,
)
from repro.fastpath.numpy_backend import HAS_NUMPY
from repro.fastpath.variants import k_memory, thinning
from repro.graphs import cycle_graph, erdos_renyi, paper_triangle
from repro.parallel import (
    MIN_PARALLEL_BATCH,
    SweepPool,
    default_chunksize,
    parallel_sweep,
    receipt_counts,
    worker_count,
)

needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="needs numpy")

WORKER_COUNTS = (1, 2, 4)
CHUNK_SIZES = (None, 1, 3, 64)


@pytest.fixture(scope="module")
def batch():
    """A medium ER batch with mixed single- and multi-source sets."""
    graph = erdos_renyi(120, 0.06, seed=41, connected=True)
    nodes = graph.nodes()
    source_sets = [[v] for v in nodes[:40]] + [
        list(nodes[:3]),
        list(nodes[50:55]),
        [nodes[0], nodes[-1]],
    ]
    return graph, source_sets


def assert_runs_identical(expected, actual):
    """Field-for-field equality of two IndexedRun lists."""
    assert len(expected) == len(actual)
    for left, right in zip(expected, actual):
        assert left.sources == right.sources
        assert left.backend == right.backend
        assert left.terminated == right.terminated
        assert left.termination_round == right.termination_round
        assert left.total_messages == right.total_messages
        assert left.round_edge_counts == right.round_edge_counts
        assert left.sender_ids == right.sender_ids
        assert left.receive_rounds_by_id == right.receive_rounds_by_id


class TestDeterminism:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("chunksize", CHUNK_SIZES)
    def test_identical_to_serial_sweep(self, batch, workers, chunksize):
        graph, source_sets = batch
        serial = sweep(graph, source_sets)
        parallel = parallel_sweep(
            graph, source_sets, workers=workers, chunksize=chunksize
        )
        assert_runs_identical(serial, parallel)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_budget_cutoff_runs_identical(self, batch, workers):
        graph, source_sets = batch
        for budget in (1, 2, 5):
            serial = sweep(graph, source_sets, max_rounds=budget)
            parallel = parallel_sweep(
                graph, source_sets, max_rounds=budget, workers=workers
            )
            assert any(not run.terminated for run in serial)  # budget bites
            assert_runs_identical(serial, parallel)

    @pytest.mark.parametrize("workers", (2, 4))
    def test_full_collection_crosses_processes(self, batch, workers):
        graph, source_sets = batch
        serial = sweep(
            graph,
            source_sets[:10],
            collect_senders=True,
            collect_receives=True,
        )
        parallel = parallel_sweep(
            graph,
            source_sets[:10],
            workers=workers,
            collect_senders=True,
            collect_receives=True,
        )
        assert_runs_identical(serial, parallel)
        assert serial[0].sender_sets() == parallel[0].sender_sets()
        assert serial[0].receive_rounds() == parallel[0].receive_rounds()

    @pytest.mark.parametrize("workers", (2, 4))
    def test_oracle_backend_through_pool(self, batch, workers):
        graph, source_sets = batch
        serial = sweep(graph, source_sets, backend="oracle")
        parallel = parallel_sweep(
            graph, source_sets, backend="oracle", workers=workers
        )
        assert_runs_identical(serial, parallel)

    def test_results_share_parent_index(self, batch):
        graph, source_sets = batch
        runs = parallel_sweep(graph, source_sets, workers=2)
        parent_index = IndexedGraph.of(graph)
        assert all(run.index is parent_index for run in runs)


class TestSerialFallback:
    def test_small_batch_auto_mode_matches(self):
        graph = paper_triangle()
        source_sets = [["a"], ["b"], ["a", "c"]]
        assert len(source_sets) < MIN_PARALLEL_BATCH
        assert_runs_identical(
            sweep(graph, source_sets), parallel_sweep(graph, source_sets)
        )

    def test_empty_batch(self):
        assert parallel_sweep(cycle_graph(5), []) == []
        assert parallel_sweep(cycle_graph(5), [], workers=2) == []

    def test_auto_mode_small_batch_never_forks(self, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - should not run
            raise AssertionError("auto mode below the floor must stay serial")

        monkeypatch.setattr(pool_module, "SweepPool", boom)
        runs = parallel_sweep(cycle_graph(9), [[0], [4]])
        assert [run.termination_round for run in runs] == [9, 9]

    def test_explicit_workers_one_builds_a_real_pool(self):
        """workers=1 is an explicit pool request: one worker, real
        process boundary -- the smallest cross-process determinism leg."""
        import repro.parallel.pool as pool_module

        calls = []
        original = pool_module.SweepPool

        class Spy(original):
            def __init__(self, *args, **kwargs):
                calls.append(kwargs.get("workers"))
                super().__init__(*args, **kwargs)

        pool_module.SweepPool, restore = Spy, original
        try:
            runs = parallel_sweep(cycle_graph(9), [[0], [4]], workers=1)
        finally:
            pool_module.SweepPool = restore
        assert calls == [1]
        assert [run.termination_round for run in runs] == [9, 9]


def never_pool(*args, **kwargs):  # pragma: no cover - must not run
    raise AssertionError("a batch below the pass floor must stay serial")


class RecordingPool:
    """A ``SweepPool`` stand-in that forks nothing: it records its
    construction and runs submitted batches in-process through the
    serial twin of the pool's chunk body."""

    built = []

    def __init__(self, graph, workers=None):
        self.index = IndexedGraph.of(graph)
        RecordingPool.built.append(workers)

    def submit_batch(self, id_lists, key, chunksize=None, run_keys=None):
        future = Future()
        future.set_result(
            pool_module.serial_batch_ids(self.index, id_lists, key, run_keys)
        )
        return future

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return None


@pytest.fixture
def two_cores(monkeypatch):
    """Auto mode sees two usable cores, whatever the machine has."""
    monkeypatch.setattr(
        pool_module,
        "worker_count",
        lambda workers=None: 2 if workers is None else workers,
    )


@pytest.fixture
def recording_pool(monkeypatch, two_cores):
    RecordingPool.built = []
    monkeypatch.setattr(pool_module, "SweepPool", RecordingPool)
    return RecordingPool


@pytest.fixture(scope="module")
def er2000():
    """ER-2000, mean degree 8: the capped all-pairs acceptance graph."""
    return erdos_renyi(2000, 8 / 2000, seed=7, connected=True)


def key_of(backend, variant=None):
    spec = FloodSpec(cycle_graph(9), (0,), backend=backend, variant=variant)
    return spec.batch_key(backend)


class TestPassCount:
    """``batch_passes``: the unit of the one-shot pool floor."""

    @needs_numpy
    @pytest.mark.parametrize("runs, passes", [(1, 1), (63, 1), (64, 1), (65, 2)])
    def test_numpy_batches_pack_64_runs_a_pass(self, runs, passes):
        assert batch_passes(key_of("numpy"), runs) == passes

    @needs_numpy
    def test_oracle_batches_pack_from_the_bitset_gate(self):
        key = key_of("oracle")
        below = BITSET_MIN_BATCH - 1
        assert batch_passes(key, below) == below
        assert batch_passes(key, BITSET_MIN_BATCH) == 1
        assert batch_passes(key, 65) == 2

    @pytest.mark.parametrize("runs", [1, 32, 64, 65])
    def test_pure_batches_count_runs(self, runs):
        assert batch_passes(key_of("pure"), runs) == runs

    @pytest.mark.parametrize("variant", [thinning(0.5, seed=3), k_memory(2)])
    @pytest.mark.parametrize("runs", [1, 64, 65])
    def test_variant_batches_count_runs(self, variant, runs):
        assert batch_passes(key_of("pure", variant), runs) == runs

    @pytest.mark.parametrize(
        "backend, runs",
        [
            ("pure", 64),
            pytest.param("numpy", 1, marks=needs_numpy),
            pytest.param("numpy", 65, marks=needs_numpy),
            ("oracle", BITSET_MIN_BATCH - 1),
            ("oracle", BITSET_MIN_BATCH),
        ],
    )
    def test_passes_follow_the_dispatched_lane(self, monkeypatch, backend, runs):
        """The predicate the floor counts by is the one dispatch routes by."""
        import repro.fastpath.engine as engine_module

        packed_calls = []
        for module in (engine_module.numpy_backend, engine_module.bitset_oracle):
            original = module.run_batch

            def spy(*args, _original=original, **kwargs):
                packed_calls.append(len(args[1]))
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "run_batch", spy)
        graph = cycle_graph(9)
        key = key_of(backend)
        id_lists = [[position % 9] for position in range(runs)]
        dispatch_batch(IndexedGraph.of(graph), id_lists, key)
        assert bool(packed_calls) == word_packed(key, runs)
        expected = -(-runs // 64) if packed_calls else runs
        assert batch_passes(key, runs) == expected


class TestOneShotFloor:
    """Auto mode builds a fresh pool only from MIN_PARALLEL_BATCH passes."""

    @needs_numpy
    def test_capped_all_pairs_never_forks(self, er2000, monkeypatch, two_cores):
        pairs = [pair for pair, _ in all_pairs_termination(er2000, 512)]
        expected = sweep(er2000, pairs)
        monkeypatch.setattr(pool_module, "SweepPool", never_pool)
        result = all_pairs_termination(er2000, pair_limit=512)
        assert [pair for pair, _ in result] == pairs
        assert [rounds for _, rounds in result] == [
            run.termination_round for run in expected
        ]
        assert_runs_identical(expected, parallel_sweep(er2000, pairs))

    @needs_numpy
    def test_receipt_counts_batch_never_forks(
        self, er2000, monkeypatch, two_cores
    ):
        source_sets = [[v] for v in er2000.nodes()[:512]]
        expected = [
            tuple(len(rounds) for rounds in run.receive_rounds_by_id)
            for run in sweep(er2000, source_sets, collect_receives=True)
        ]
        monkeypatch.setattr(pool_module, "SweepPool", never_pool)
        assert receipt_counts(er2000, source_sets) == expected

    @needs_numpy
    @pytest.mark.parametrize("runs, pools", [(31 * 64, 0), (31 * 64 + 1, 1)])
    def test_numpy_batch_pools_from_32_passes(
        self, batch, recording_pool, runs, pools
    ):
        graph, _ = batch
        nodes = graph.nodes()
        source_sets = [[nodes[i % len(nodes)]] for i in range(runs)]
        runs_got = parallel_sweep(graph, source_sets, backend="numpy")
        assert recording_pool.built == [2] * pools
        assert_runs_identical(
            sweep(graph, source_sets, backend="numpy"), runs_got
        )

    @pytest.mark.parametrize(
        "runs, pools", [(MIN_PARALLEL_BATCH - 1, 0), (MIN_PARALLEL_BATCH, 1)]
    )
    def test_pure_batch_pools_from_32_runs(self, recording_pool, runs, pools):
        graph = cycle_graph(41)
        source_sets = [[v] for v in range(runs)]
        got = parallel_sweep(graph, source_sets)
        assert got[0].backend == "pure"
        assert recording_pool.built == [2] * pools
        assert_runs_identical(sweep(graph, source_sets), got)

    def test_variant_batch_counts_trials(self, recording_pool):
        graph = cycle_graph(41)
        variant = thinning(0.7, seed=5)
        source_sets = [[0]] * MIN_PARALLEL_BATCH
        got = parallel_sweep(graph, source_sets, variant=variant)
        assert recording_pool.built == [2]
        assert_runs_identical(sweep(graph, source_sets, variant=variant), got)

    def test_one_core_stays_serial(self, monkeypatch):
        monkeypatch.setattr(pool_module, "worker_count", lambda workers=None: 1)
        monkeypatch.setattr(pool_module, "SweepPool", never_pool)
        source_sets = [[v] for v in range(MIN_PARALLEL_BATCH)]
        graph = cycle_graph(41)
        assert_runs_identical(
            sweep(graph, source_sets), parallel_sweep(graph, source_sets)
        )


class TestValidation:
    def test_bad_workers(self):
        with pytest.raises(ConfigurationError):
            parallel_sweep(cycle_graph(5), [[0]], workers=0)

    def test_bad_chunksize(self):
        with pytest.raises(ConfigurationError):
            parallel_sweep(cycle_graph(5), [[0]], chunksize=0)

    def test_unknown_source_raises_before_dispatch(self):
        with pytest.raises(NodeNotFoundError):
            parallel_sweep(cycle_graph(5), [[0], [99]], workers=2)

    def test_bad_budget(self):
        with pytest.raises(ConfigurationError):
            parallel_sweep(cycle_graph(5), [[0]], max_rounds=0)

    def test_unknown_backend(self):
        with pytest.raises(ConfigurationError):
            parallel_sweep(cycle_graph(5), [[0]], backend="cuda")


def specs_of(graph, source_sets, **fields):
    return [FloodSpec(graph, tuple(sources), **fields) for sources in source_sets]


class TestSweepPool:
    def test_pool_reuse_across_batches_and_backends(self):
        graph = erdos_renyi(80, 0.08, seed=13, connected=True)
        nodes = graph.nodes()
        first = [[v] for v in nodes[:10]]
        second = [[v] for v in nodes[10:20]]
        with SweepPool(graph, workers=2) as pool:
            got_first = pool.sweep_specs(specs_of(graph, first))
            got_second = pool.sweep_specs(
                specs_of(graph, second, backend="oracle")
            )
            cut = pool.sweep_specs(specs_of(graph, first, max_rounds=2))
        assert_runs_identical(sweep(graph, first), got_first)
        assert_runs_identical(sweep(graph, second, backend="oracle"), got_second)
        assert_runs_identical(sweep(graph, first, max_rounds=2), cut)

    def test_pool_label_space(self):
        with SweepPool(paper_triangle(), workers=2) as pool:
            runs = pool.sweep_specs(
                specs_of(paper_triangle(), [["b"], ["a", "c"]])
            )
        assert runs[0].sources == ("b",)
        assert [run.termination_round for run in runs] == [3, 2]


class TestHeuristics:
    def test_worker_count_explicit(self):
        assert worker_count(3) == 3
        with pytest.raises(ConfigurationError):
            worker_count(0)

    def test_worker_count_auto_positive(self):
        assert worker_count() >= 1

    def test_default_chunksize_bounds(self):
        assert default_chunksize(0, 4) == 1
        assert default_chunksize(1, 4) == 1
        assert default_chunksize(10_000, 4) == 64  # capped
        assert default_chunksize(64, 4) == 4  # ~4 chunks per worker
        for batch in (1, 7, 100, 5000):
            for workers in (1, 2, 8):
                chunk = default_chunksize(batch, workers)
                assert 1 <= chunk <= 64
