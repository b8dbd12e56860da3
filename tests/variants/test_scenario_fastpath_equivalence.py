"""Scenario equivalence matrix: fast path == pinned reference, bit for bit.

PR 9 ports the last set-based scenarios (``periodic``,
``multi_message``, ``random_delay``, ``dynamic``) onto arc-mask
steppers.  This matrix is the contract: for every built-in scenario,
across budgets and seed streams, the fast-path result equals the
pinned reference engine's result field for field -- and the execution
tiers (serial session, worker pools of 1/2/4, the result cache) are
pure scheduling, never content.

The scenario axis is read from the registry (``scenario_names()``) at
collection time, so a newly registered scenario joins the matrix by
construction -- and fails by name until :data:`SCENARIO_ARGS` says which
arguments to run it with.

``make smoke`` runs this file fail-fast, mirroring the bitset and
cache subsets.
"""

import pytest

from repro.api import FloodSession, FloodSpec
from repro.api.scenarios import scenario_names
from repro.cache import ResultCache
from repro.errors import ConfigurationError
from repro.fastpath.variants import (
    VariantSpec,
    dynamic_schedule,
    multi_message,
    periodic_injection,
    random_delay,
)
from repro.graphs import (
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
)
from repro.graphs.random_graphs import erdos_renyi

GRAPHS = {
    "cycle9": cycle_graph(9),
    "complete6": complete_graph(6),
    "path7": path_graph(7),
    "petersen": petersen_graph(),
    "er24": erdos_renyi(24, 0.2, seed=3, connected=True),
}

# Registered scenario name -> the scenario string the matrix runs.
SCENARIO_ARGS = {
    "flood": "flood",
    "thinning": "thinning:0.8",
    "lossy": "lossy:0.15",
    "kmemory": "kmemory:2",
    "periodic": "periodic:2,3",
    "multi_message": "multi_message",
    "random_delay": "random_delay:0.4",
    "dynamic": "dynamic:2",
}

SCENARIOS = scenario_names()

MULTI_SOURCE = {"flood", "multi_message"}


def matrix_scenario(name):
    """The matrix's scenario string for a registered name."""
    if name not in SCENARIO_ARGS:
        pytest.fail(
            f"registered scenario {name!r} has no entry in SCENARIO_ARGS; "
            f"its fast path is unchecked against its reference until one "
            f"is added"
        )
    return SCENARIO_ARGS[name]


def build(scenario, graph, *, seed=0, stream=0, max_rounds=None):
    labels = sorted(graph.nodes())
    name = scenario.split(":", 1)[0]
    sources = labels[:2] if name in MULTI_SOURCE else labels[:1]
    return FloodSpec.from_scenario(
        scenario,
        graph,
        sources,
        seed=seed,
        stream=stream,
        max_rounds=max_rounds,
    )


def assert_bit_identical(fast, reference):
    """Field-for-field equality on everything both records report."""
    assert fast.terminated == reference.terminated
    assert fast.termination_round == reference.termination_round
    assert fast.total_messages == reference.total_messages
    if reference.round_edge_counts:
        assert fast.round_edge_counts == reference.round_edge_counts
    else:
        assert sum(fast.round_edge_counts) == reference.total_messages
    if fast.reached_count is not None and reference.reached_count is not None:
        assert fast.reached_count == reference.reached_count


class TestFastMatchesReference:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_default_budget(self, scenario, name):
        spec = build(matrix_scenario(scenario), GRAPHS[name], seed=5)
        with FloodSession(workers=0) as session:
            assert_bit_identical(
                session.run(spec), session.run(spec, reference=True)
            )

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_tight_budget_cut_off_agrees(self, scenario):
        """Budget semantics must match down to the cut-off verdict."""
        graph = GRAPHS["cycle9"]
        for max_rounds in (1, 2, 5):
            spec = build(
                matrix_scenario(scenario), graph, seed=5,
                max_rounds=max_rounds,
            )
            with FloodSession(workers=0) as session:
                assert_bit_identical(
                    session.run(spec), session.run(spec, reference=True)
                )

    @pytest.mark.parametrize(
        "scenario", ["thinning:0.6", "lossy:0.3", "random_delay:0.5"]
    )
    def test_stochastic_streams_agree_per_key(self, scenario):
        """Each (seed, stream) is one trial: fast == reference per key,
        and distinct keys genuinely decorrelate."""
        graph = GRAPHS["petersen"]
        outcomes = set()
        with FloodSession(workers=0) as session:
            for seed in (1, 9):
                for stream in (0, 1, 2):
                    spec = build(scenario, graph, seed=seed, stream=stream)
                    fast = session.run(spec)
                    assert_bit_identical(fast, session.run(spec, reference=True))
                    outcomes.add(
                        (fast.termination_round, tuple(fast.round_edge_counts))
                    )
        assert len(outcomes) > 1

    def test_periodic_injection_schedules(self):
        graph = GRAPHS["er24"]
        with FloodSession(workers=0) as session:
            for period in (1, 2, 3):
                for injections in (1, 4):
                    spec = FloodSpec.from_scenario(
                        f"periodic:{period},{injections}",
                        graph,
                        sorted(graph.nodes())[:1],
                    )
                    assert_bit_identical(
                        session.run(spec), session.run(spec, reference=True)
                    )

    def test_dynamic_flip_rates_and_seeds(self):
        graph = GRAPHS["petersen"]
        with FloodSession(workers=0) as session:
            for flips in (0, 1, 3):
                for seed in (2, 13):
                    spec = FloodSpec.from_scenario(
                        f"dynamic:{flips}",
                        graph,
                        sorted(graph.nodes())[:1],
                        seed=seed,
                    )
                    assert_bit_identical(
                        session.run(spec), session.run(spec, reference=True)
                    )


class TestCollection:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_collection_changes_no_statistic(self, scenario, name):
        """Collecting senders and receives is observation, never dynamics."""
        graph = GRAPHS[name]
        spec = build(matrix_scenario(scenario), graph, seed=5)
        with FloodSession(workers=0) as session:
            plain = session.run(spec)
            collected = session.run(
                spec.replace(collect_senders=True, collect_receives=True)
            )
        assert (
            collected.terminated,
            collected.termination_round,
            collected.total_messages,
            collected.round_edge_counts,
            collected.reached_count,
        ) == (
            plain.terminated,
            plain.termination_round,
            plain.total_messages,
            plain.round_edge_counts,
            plain.reached_count,
        )
        assert len(collected.sender_sets()) == collected.termination_round
        reached = set(spec.sources) | {
            node for node, rounds in collected.receive_rounds().items() if rounds
        }
        # coverage() reads reached_count where the stepper counts it
        # (every variant) and derives it from the receives otherwise.
        n = graph.num_nodes
        assert collected.coverage(n) == len(reached) / n

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_multi_message_collects_the_union_of_its_payloads(self, name):
        """Per round, the senders of any payload; per node, every round
        any payload reached it -- the fold of one plain flood per source."""
        graph = GRAPHS[name]
        spec = build("multi_message", graph).replace(
            collect_senders=True, collect_receives=True
        )
        with FloodSession(workers=0) as session:
            multi = session.run(spec)
            singles = [
                session.run(
                    FloodSpec(
                        graph=graph,
                        sources=(source,),
                        backend="pure",
                        collect_senders=True,
                        collect_receives=True,
                    )
                )
                for source in spec.sources
            ]
        rounds = max(run.termination_round for run in singles)
        assert multi.sender_sets() == [
            frozenset().union(
                *(run.sender_sets()[r] for run in singles if r < run.termination_round)
            )
            for r in range(rounds)
        ]
        assert multi.receive_rounds() == {
            node: tuple(
                sorted(set().union(*(run.receive_rounds()[node] for run in singles)))
            )
            for node in graph.nodes()
        }


class TestPoolDeterminism:
    def test_worker_counts_are_pure_scheduling(self):
        """The same scenario batch through pools of 1, 2 and 4 workers
        equals the serial sweep, result for result."""
        graph = GRAPHS["er24"]
        source = sorted(graph.nodes())[0]
        specs = (
            [
                build("random_delay:0.4", graph, seed=3, stream=stream)
                for stream in range(6)
            ]
            + [
                FloodSpec.from_scenario(
                    f"periodic:{period},3", graph, [source]
                )
                for period in (1, 2, 3)
            ]
            + [build("multi_message", graph) for _ in range(2)]
            + [build("dynamic:2", graph, seed=7) for _ in range(2)]
        )

        def snapshot(results):
            return [
                (
                    r.terminated,
                    r.termination_round,
                    r.total_messages,
                    tuple(r.round_edge_counts),
                    r.reached_count,
                    r.backend,
                )
                for r in results
            ]

        with FloodSession(workers=0) as session:
            serial = snapshot(session.sweep(specs))
        for workers in (1, 2, 4):
            with FloodSession(workers=workers) as session:
                assert snapshot(session.sweep(specs)) == serial, workers


class TestCacheBitIdentity:
    def test_stochastic_scenario_hits_are_bit_identical(self):
        """A cache hit for a stochastic scenario spec returns the exact
        stored run, per (seed, stream)."""
        graph = GRAPHS["petersen"]
        with FloodSession(workers=0, cache=ResultCache()) as session:
            cold = {}
            for seed in (1, 2):
                for stream in (0, 1):
                    spec = build(
                        "random_delay:0.35", graph, seed=seed, stream=stream
                    )
                    result = session.run(spec)
                    cold[(seed, stream)] = result
            hits_before = session.cache_stats().hits
            for (seed, stream), first in cold.items():
                spec = build(
                    "random_delay:0.35", graph, seed=seed, stream=stream
                )
                again = session.run(spec)
                assert again.terminated == first.terminated
                assert again.termination_round == first.termination_round
                assert again.round_edge_counts == first.round_edge_counts
                assert again.total_messages == first.total_messages
            assert session.cache_stats().hits >= hits_before + 4
        # Distinct keys name distinct entries: 4 cold misses stored.
        assert len(
            {
                build("random_delay:0.35", graph, seed=s, stream=t).digest()
                for s in (1, 2)
                for t in (0, 1)
            }
        ) == 4

    def test_dynamic_schedule_keys_the_cache_by_content(self):
        graph = GRAPHS["petersen"]
        one = build("dynamic:2", graph, seed=3)
        same = build("dynamic:2", graph, seed=3)
        other = build("dynamic:3", graph, seed=3)
        assert one.digest() == same.digest()
        assert one.digest() != other.digest()
        with FloodSession(workers=0, cache=ResultCache()) as session:
            first = session.run(one)
            again = session.run(same)
            assert session.cache_stats().hits >= 1
            assert again.round_edge_counts == first.round_edge_counts


class TestBackendEligibility:
    """Stochastic/step-granular steppers never route numpy or oracle."""

    def variants(self):
        from repro.fastpath.schedule import ArcSchedule
        from repro.fastpath.indexed import IndexedGraph

        graph = GRAPHS["cycle9"]
        full = (1 << IndexedGraph.of(graph).num_arcs) - 1
        return graph, [
            periodic_injection(2, 3),
            multi_message(),
            random_delay(0.4),
            dynamic_schedule(ArcSchedule(graph, (full,))),
        ]

    @pytest.mark.parametrize("backend", ["numpy", "oracle"])
    def test_deterministic_only_engines_raise(self, backend):
        graph, variants = self.variants()
        for variant in variants:
            with pytest.raises(ConfigurationError, match=backend):
                FloodSpec(
                    graph=graph,
                    sources=(0,),
                    variant=variant,
                    backend=backend,
                )

    def test_auto_selection_resolves_pure_even_past_numpy_thresholds(self):
        # complete_graph(70): 4830 arcs >= NUMPY_ARC_THRESHOLD and mean
        # degree 69 >= NUMPY_MIN_MEAN_DEGREE -- a deterministic spec
        # would route numpy here; variant specs must stay pure.
        graph = complete_graph(70)
        with FloodSession(workers=0) as session:
            for scenario in ("periodic:2", "random_delay:0.3"):
                spec = FloodSpec.from_scenario(scenario, graph, [0])
                assert session.plan(spec).backend == "pure"


class TestValidation:
    def test_random_delay_probability_range(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigurationError, match="\\[0, 1\\)"):
                random_delay(bad)

    def test_periodic_parameters(self):
        with pytest.raises(ConfigurationError, match="period"):
            periodic_injection(0)
        with pytest.raises(ConfigurationError, match="injections"):
            periodic_injection(2, 0)

    def test_dynamic_requires_a_schedule(self):
        with pytest.raises(ConfigurationError, match="ArcSchedule"):
            VariantSpec("dynamic")

    def test_periodic_is_single_source(self):
        spec = FloodSpec(
            graph=GRAPHS["cycle9"],
            sources=(0, 3),
            variant=periodic_injection(2),
        )
        with FloodSession(workers=0) as session:
            with pytest.raises(ConfigurationError, match="single source"):
                session.run(spec)
