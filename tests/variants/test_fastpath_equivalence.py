"""The variant equivalence matrix: arc-mask fast path == set-based reference.

Every variant that runs on the fast path (probabilistic thinning,
Bernoulli loss, k-memory) is held bit-for-bit equal to its independent
reference implementation -- the set-based stepper in
``repro.variants.probabilistic`` and the message-passing engine behind
``lossy_flood`` / ``k_memory_trace``.  The two sides share only the
counter-based RNG coordinates (:mod:`repro.rng`) and the CSR arc
numbering; the dynamics are implemented twice.

Also here: the cross-worker/chunk determinism of variant sweeps (the
stochastic analogue of ``tests/parallel/test_parallel_sweep.py``), the
core budget cut-off rule on every variant, and the pinned seed-stream
regression for the counter-derived surveys.
"""

from __future__ import annotations

import pytest

from repro.api import FloodSpec
from repro.core import simulate
from repro.errors import ConfigurationError
from repro.fastpath import (
    IndexedGraph,
    batch_specs,
    bernoulli_loss,
    k_memory,
    resolve_batch,
    run_spec,
    sweep,
    thinning,
    variant_backend,
    variant_survey,
)
from repro.fastpath.variants import VariantSpec
from repro.graphs import (
    complete_graph,
    cycle_graph,
    erdos_renyi,
    path_graph,
    petersen_graph,
)
from repro.parallel import parallel_sweep
from repro.rng import derive_key
from repro.variants import (
    coverage_curve,
    k_memory_trace,
    loss_sweep,
    lossy_flood,
    lossy_survey,
    memory_sweep,
    probabilistic_flood,
)

GRAPHS = [
    cycle_graph(9),
    complete_graph(6),
    path_graph(7),
    petersen_graph(),
    erdos_renyi(24, 0.2, seed=3, connected=True),
]


def fast_runs(graph, spec, trials, source=None, max_rounds=None):
    source = graph.nodes()[0] if source is None else source
    return sweep(
        graph,
        [[source]] * trials,
        max_rounds=max_rounds,
        variant=spec,
        collect_receives=True,
    )


class TestThinningEquivalence:
    @pytest.mark.parametrize("q", [0.0, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: repr(g)[:24])
    def test_matches_reference_per_trial(self, graph, q):
        source = graph.nodes()[0]
        runs = fast_runs(graph, thinning(q, seed=11), trials=5, max_rounds=60)
        for trial, fast in enumerate(runs):
            ref = probabilistic_flood(
                graph, source, q, seed=11, max_rounds=60, trial_index=trial
            )
            assert fast.terminated == ref.terminated
            assert fast.termination_round == ref.termination_round
            assert fast.total_messages == ref.total_messages
            assert fast.reached_count == len(ref.nodes_reached)
            reached = {
                node
                for node, rounds in fast.receive_rounds().items()
                if rounds
            } | set(fast.sources)
            assert reached == ref.nodes_reached

    def test_q_one_is_the_deterministic_process(self):
        graph = petersen_graph()
        fast = fast_runs(graph, thinning(1.0, seed=5), trials=1)[0]
        det = simulate(graph, [graph.nodes()[0]])
        assert fast.termination_round == det.termination_round
        assert fast.total_messages == det.total_messages
        assert fast.round_edge_counts == det.round_edge_counts
        assert fast.receive_rounds() == det.receive_rounds

    def test_q_zero_sends_nothing(self):
        fast = fast_runs(path_graph(5), thinning(0.0, seed=1), trials=1)[0]
        assert fast.terminated
        assert fast.total_messages == 0
        assert fast.reached_count == 1


class TestLossEquivalence:
    @pytest.mark.parametrize("rate", [0.0, 0.25, 0.6, 1.0])
    @pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: repr(g)[:24])
    def test_matches_engine_per_trial(self, graph, rate):
        source = graph.nodes()[0]
        runs = fast_runs(
            graph, bernoulli_loss(rate, seed=5), trials=5, max_rounds=80
        )
        for trial, fast in enumerate(runs):
            trace = lossy_flood(
                graph, source, rate, seed=5, max_rounds=80, trial_index=trial
            )
            assert fast.terminated == trace.terminated
            assert fast.termination_round == trace.rounds_executed
            assert fast.total_messages == trace.total_messages()
            assert fast.round_edge_counts == trace.per_round_message_counts()
            assert fast.reached_count == len(trace.nodes_reached())
            assert fast.receive_rounds() == trace.receive_rounds()

    def test_survey_is_bit_identical(self):
        ref = lossy_survey(cycle_graph(12), 0, 0.3, trials=25, seed=5)
        fast = variant_survey(
            cycle_graph(12), 0, bernoulli_loss(0.3, seed=5), trials=25
        )
        # Same ints, same summation order: the floats are equal, not close.
        assert fast.termination_rate == ref.termination_rate
        assert fast.mean_rounds == ref.mean_rounds
        assert fast.mean_messages == ref.mean_messages
        assert fast.coverage == ref.coverage

    def test_supercritical_dense_graph_cut_off_agrees(self):
        graph = complete_graph(6)
        fast = fast_runs(
            graph, bernoulli_loss(0.25, seed=1), trials=3, max_rounds=200
        )
        for trial, run in enumerate(fast):
            trace = lossy_flood(
                graph, 0, 0.25, seed=1, max_rounds=200, trial_index=trial
            )
            assert run.terminated == trace.terminated
            assert run.total_messages == trace.total_messages()
        assert not all(run.terminated for run in fast)  # loss breaks Thm 3.1


class TestKMemoryEquivalence:
    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
    @pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: repr(g)[:24])
    def test_matches_engine(self, graph, k):
        source = graph.nodes()[0]
        fast = fast_runs(graph, k_memory(k), trials=1, max_rounds=50)[0]
        trace = k_memory_trace(graph, source, k, max_rounds=50)
        assert fast.terminated == trace.terminated
        assert fast.termination_round == trace.rounds_executed
        assert fast.total_messages == trace.total_messages()
        assert fast.round_edge_counts == trace.per_round_message_counts()
        assert fast.receive_rounds() == trace.receive_rounds()

    def test_k_one_is_amnesiac_flooding(self):
        graph = erdos_renyi(30, 0.15, seed=9, connected=True)
        source = graph.nodes()[0]
        fast = sweep(
            graph,
            [[source]],
            variant=k_memory(1),
            collect_senders=True,
            collect_receives=True,
        )[0]
        det = run_spec(
            FloodSpec(
                graph=graph,
                sources=(source,),
                backend="pure",
                collect_senders=True,
                collect_receives=True,
            )
        )
        assert fast.termination_round == det.termination_round
        assert fast.total_messages == det.total_messages
        assert fast.round_edge_counts == det.round_edge_counts
        assert fast.sender_sets() == det.sender_sets()
        assert fast.receive_rounds() == det.receive_rounds()

    def test_k_zero_ping_pongs_until_budget(self):
        fast = fast_runs(path_graph(3), k_memory(0), trials=1, max_rounds=17)[0]
        assert not fast.terminated
        assert fast.termination_round == 17  # every budgeted round executed

    def test_memory_sweep_agrees(self):
        graph = petersen_graph()
        for point in memory_sweep(graph, 0, [0, 1, 2, 4], max_rounds=40):
            fast = fast_runs(
                graph, k_memory(point.k), trials=1, source=0, max_rounds=40
            )[0]
            assert fast.terminated == point.terminated
            assert fast.termination_round == point.rounds
            assert fast.total_messages == point.messages


class TestBudgetSemantics:
    """The core cut-off rule, uniformly: a run that sends in round
    ``budget`` and falls silent terminated; the cut-off fires only when
    round ``budget + 1`` actually carries messages."""

    def test_exact_budget_terminates(self):
        graph = cycle_graph(9)  # AF terminates in exactly 9 rounds
        run = fast_runs(graph, thinning(1.0, seed=0), trials=1, max_rounds=9)[0]
        assert run.terminated and run.termination_round == 9
        cut = fast_runs(graph, thinning(1.0, seed=0), trials=1, max_rounds=8)[0]
        assert not cut.terminated and cut.termination_round == 8

    def test_reference_agrees_on_the_boundary(self):
        graph = cycle_graph(9)
        ref = probabilistic_flood(graph, 0, 1.0, seed=0, max_rounds=9)
        assert ref.terminated and ref.termination_round == 9
        ref = probabilistic_flood(graph, 0, 1.0, seed=0, max_rounds=8)
        assert not ref.terminated and ref.termination_round == 8

    @pytest.mark.parametrize("budget", [1, 3])
    def test_kmemory_cutoff_counts_match(self, budget):
        graph = complete_graph(5)
        fast = fast_runs(graph, k_memory(0), trials=1, max_rounds=budget)[0]
        trace = k_memory_trace(graph, 0, 0, max_rounds=budget)
        assert (fast.terminated, fast.termination_round) == (
            trace.terminated,
            trace.rounds_executed,
        )

    def test_max_rounds_validated_uniformly(self):
        from repro.variants import simulate_dynamic, StaticSchedule

        with pytest.raises(ConfigurationError):
            sweep(cycle_graph(5), [[0]], max_rounds=0, variant=k_memory(1))
        with pytest.raises(ConfigurationError):
            probabilistic_flood(path_graph(3), 0, 0.5, max_rounds=0)
        with pytest.raises(ConfigurationError):
            simulate_dynamic(StaticSchedule(path_graph(3)), [0], max_rounds=0)

    def test_dynamic_default_budget_is_core_rule(self):
        from repro.sync.engine import default_round_budget
        from repro.variants import simulate_dynamic, StaticSchedule

        graph = cycle_graph(7)
        run = simulate_dynamic(StaticSchedule(graph), [0])
        assert run.terminated  # 4n + 8 default is never hit by plain AF
        assert run.termination_round < default_round_budget(graph)


class TestSpecValidation:
    def test_kind_and_parameter_checks(self):
        with pytest.raises(ConfigurationError):
            VariantSpec("gossip", probability=0.5)
        with pytest.raises(ConfigurationError):
            thinning(1.5)
        with pytest.raises(ConfigurationError):
            bernoulli_loss(-0.1)
        with pytest.raises(ConfigurationError):
            k_memory(-1)
        with pytest.raises(ConfigurationError):
            VariantSpec("kmemory", probability=0.5, k=1)

    def test_stochastic_flag(self):
        assert thinning(0.5).stochastic
        assert bernoulli_loss(0.5).stochastic
        assert not k_memory(2).stochastic

    def test_backend_rules(self):
        index = IndexedGraph.of(cycle_graph(5))
        spec = bernoulli_loss(0.5, seed=1)
        assert variant_backend(index, None, spec) == "pure"
        assert variant_backend(index, "pure", spec) == "pure"
        for forbidden in ("oracle", "numpy", "cuda"):
            with pytest.raises(ConfigurationError):
                variant_backend(index, forbidden, spec)
        # ... and through the public sweep entry point.
        with pytest.raises(ConfigurationError):
            sweep(cycle_graph(5), [[0]], variant=spec, backend="oracle")

    def test_specs_are_hashable_and_picklable(self):
        import pickle

        spec = thinning(0.25, seed=3)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert len({spec, thinning(0.25, seed=3), k_memory(1)}) == 2


class TestPoolDeterminism:
    """Stochastic sweeps are bit-identical across worker counts and
    chunk sizes -- run i's randomness is keyed by its batch position,
    so sharding cannot move it onto a different stream."""

    SPECS = [
        thinning(0.6, seed=21),
        bernoulli_loss(0.3, seed=22),
        k_memory(2),
    ]

    @pytest.fixture(scope="class")
    def workload(self):
        graph = erdos_renyi(60, 0.08, seed=41, connected=True)
        return graph, [[v] for v in graph.nodes()[:36]]

    @staticmethod
    def assert_runs_identical(expected, actual):
        assert len(expected) == len(actual)
        for left, right in zip(expected, actual):
            assert left.sources == right.sources
            assert left.backend == right.backend
            assert left.variant == right.variant
            assert left.terminated == right.terminated
            assert left.termination_round == right.termination_round
            assert left.total_messages == right.total_messages
            assert left.round_edge_counts == right.round_edge_counts
            assert left.reached_count == right.reached_count
            assert left.sender_ids == right.sender_ids
            assert left.receive_rounds_by_id == right.receive_rounds_by_id

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("chunksize", [None, 1, 5])
    def test_identical_across_workers_and_chunks(
        self, workload, spec, workers, chunksize
    ):
        graph, source_sets = workload
        serial = sweep(graph, source_sets, max_rounds=40, variant=spec)
        sharded = parallel_sweep(
            graph,
            source_sets,
            max_rounds=40,
            variant=spec,
            workers=workers,
            chunksize=chunksize,
        )
        self.assert_runs_identical(serial, sharded)

    def test_full_collection_crosses_processes(self, workload):
        graph, source_sets = workload
        spec = bernoulli_loss(0.4, seed=8)
        serial = sweep(
            graph,
            source_sets[:8],
            variant=spec,
            collect_senders=True,
            collect_receives=True,
        )
        sharded = parallel_sweep(
            graph,
            source_sets[:8],
            variant=spec,
            workers=2,
            collect_senders=True,
            collect_receives=True,
        )
        self.assert_runs_identical(serial, sharded)

    def test_survey_stable_across_workers(self):
        graph = cycle_graph(16)
        spec = bernoulli_loss(0.2, seed=13)
        baseline = variant_survey(graph, 0, spec, trials=40)
        for workers in (1, 2):
            again = variant_survey(graph, 0, spec, trials=40, workers=workers)
            assert again == baseline

    def test_serial_batch_ids_runs_the_specs_streams(self, workload):
        # The exported in-process fallback runs each id list on the
        # stream key its spec carries, and refuses variant work without
        # keys rather than running every trial on one stream.
        from repro.parallel import serial_batch_ids

        graph, source_sets = workload
        spec = thinning(0.5, seed=42)
        specs = batch_specs(graph, source_sets[:10], variant=spec)
        index = IndexedGraph.of(graph)
        key, id_lists, run_keys = resolve_batch(specs, index)
        runs = serial_batch_ids(index, id_lists, key, run_keys)
        self.assert_runs_identical(
            sweep(graph, source_sets[:10], variant=spec), runs
        )
        assert len({run.total_messages for run in runs}) > 1  # streams differ
        with pytest.raises(ConfigurationError, match="run_keys"):
            serial_batch_ids(index, id_lists, key)

    def test_pool_runs_the_specs_streams(self, workload):
        # Same guarantee through a real pool's submit path.
        from repro.parallel import SweepPool

        graph, source_sets = workload
        spec = bernoulli_loss(0.35, seed=6)
        specs = batch_specs(graph, source_sets[:10], max_rounds=40, variant=spec)
        with SweepPool(graph, workers=2) as pool:
            key, id_lists, run_keys = resolve_batch(specs, pool.index)
            runs = pool.submit_batch(id_lists, key, run_keys=run_keys).result(
                timeout=60
            )
            with pytest.raises(ConfigurationError, match="run_keys"):
                pool.submit_batch(id_lists, key)
        expected = sweep(graph, source_sets[:10], max_rounds=40, variant=spec)
        self.assert_runs_identical(expected, runs)

    def test_batch_position_owns_the_stream(self, workload):
        # Prefix stability: the first k runs of a longer batch equal
        # the k-run batch -- the seed-stream property the counter
        # derivation exists to provide.
        graph, source_sets = workload
        spec = thinning(0.5, seed=77)
        short = sweep(graph, source_sets[:6], variant=spec)
        longer = sweep(graph, source_sets, variant=spec)
        self.assert_runs_identical(short, longer[:6])


class TestSeedStreamRegression:
    """Pinned outcomes of the counter-derived survey streams.

    These values were produced by the counter-based derivation at the
    time it was introduced; if they move, the seed-stream contract
    (insertion/resharding stability, fast-path equality) has changed.
    """

    def test_lossy_survey_pinned(self):
        summary = lossy_survey(cycle_graph(12), 0, 0.3, trials=10, seed=2024)
        assert summary.termination_rate == 1.0
        assert summary.mean_rounds == 3.6
        assert summary.mean_messages == 4.3
        assert summary.coverage == 0.4

    def test_loss_sweep_pinned(self):
        low, high = loss_sweep(cycle_graph(10), 0, [0.1, 0.5], trials=6, seed=7)
        assert (low.mean_rounds, low.mean_messages) == (73 / 6, 14.5)
        assert high.mean_messages == 5 / 6
        # Per-rate sub-streams: surveying a rate alone reproduces its
        # row of the sweep exactly.
        alone = lossy_survey(
            cycle_graph(10), 0, 0.5, trials=6, seed=derive_key(7, 1)
        )
        assert alone == high

    def test_probabilistic_flood_pinned(self):
        run = probabilistic_flood(complete_graph(5), 0, 0.6, seed=99, max_rounds=40)
        assert run.terminated
        assert run.termination_round == 1
        assert run.total_messages == 1
        assert run.nodes_reached == {0, 4}

    def test_coverage_curve_pinned(self):
        (point,) = coverage_curve(cycle_graph(8), 0, [0.5], trials=5, seed=3)
        assert point.termination_rate == 1.0
        assert point.mean_coverage == 0.325
        assert point.mean_messages == 1.6

    def test_trial_insertion_does_not_move_later_trials(self):
        # Trial t's trace depends only on (seed, t): running 5 or 10
        # trials gives the same trace for t = 4.
        five = lossy_flood(cycle_graph(9), 0, 0.3, seed=6, trial_index=4)
        independent = lossy_flood(cycle_graph(9), 0, 0.3, seed=6, trial_index=4)
        assert five.per_round_message_counts() == (
            independent.per_round_message_counts()
        )
        assert five.nodes_reached() == independent.nodes_reached()
