"""EXT-SCN: the ported scenarios on the arc-mask fast path.

PR 9 moved the last set-based scenarios -- periodic re-injection,
concurrent multi-message floods, random per-message delay, and
dynamic topologies -- onto :mod:`repro.fastpath.variants` steppers.
These rows measure the port on the acceptance workload (the 10k-node
ER scaling family), each asserted bit-identical to the pinned
set-based reference engine it replaced:

* ``periodic`` -- :func:`repro.variants.periodic_injection_flood`
  (set frontier + orbit detection) vs the arc-mask stepper with
  int-mask cycle detection; fast must win >= 5x serial on the full
  workload (>= 1.5x quick -- fixed costs dominate small graphs);
* ``multi_message`` -- :func:`repro.variants.concurrent_floods` (the
  per-message engine) vs the per-payload inline floods, same bound;
* ``random_delay`` -- ``run_async`` + the counter-keyed delay
  adversary vs the step-granular mask stepper, same bound;
* ``dynamic`` -- :func:`repro.variants.simulate_dynamic` over an
  edge-flip schedule vs the arc-diff ``ArcSchedule`` stepper (one
  superset index, one AND per round); the speedup is recorded, not
  asserted -- schedule compilation is a spec-construction cost both
  sides share, and the row documents the remaining ratio honestly.

The periodic and random_delay rows also time a small (256-node)
instance of the same pair and record it as ``crossover_speedup``: the
size where per-call fixed costs still rival the per-message win, so
the trajectory shows *where* the fast path starts paying.

Set ``REPRO_BENCH_QUICK=1`` (or run ``benchmarks/run_bench.py
--quick``) to shrink the workload to a smoke-sized batch.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.api import FloodSpec, run_scenario
from repro.fastpath import IndexedGraph, run_spec
from repro.graphs import erdos_renyi
from conftest import record, timed_pedantic

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

NODES = 1_000 if QUICK else 10_000
SEED = 5
MIN_SPEEDUP = 1.5 if QUICK else 5.0
CROSSOVER_NODES = 256


@pytest.fixture(scope="module")
def workload():
    """The acceptance workload: the 10k-node ER scaling family.

    The index is warmed up front -- ``IndexedGraph.of`` is memoised,
    and amortised indexing is the fast path's standing claim.
    """
    graph = erdos_renyi(NODES, min(1.0, 8.0 / NODES), seed=NODES, connected=True)
    IndexedGraph.of(graph)
    return graph, graph.nodes()[0]


def scenario_spec(scenario, graph, sources, **kwargs):
    return FloodSpec.from_scenario(scenario, graph, sources, **kwargs)


def assert_stats_equal(fast, reference):
    assert fast.terminated == reference.terminated
    assert fast.termination_round == reference.termination_round
    assert fast.total_messages == reference.total_messages
    if reference.round_edge_counts:
        assert fast.round_edge_counts == reference.round_edge_counts


def crossover_speedup(scenario, **kwargs):
    """Reference/fast wall-time ratio on a small instance of the pair."""
    graph = erdos_renyi(
        CROSSOVER_NODES,
        min(1.0, 8.0 / CROSSOVER_NODES),
        seed=CROSSOVER_NODES,
        connected=True,
    )
    spec = scenario_spec(scenario, graph, [graph.nodes()[0]], **kwargs)
    run_spec(spec)  # warm the index outside both timed regions
    started = time.perf_counter()
    run_scenario(spec)
    reference_seconds = time.perf_counter() - started
    started = time.perf_counter()
    run_spec(spec)
    fast_seconds = time.perf_counter() - started
    return round(reference_seconds / fast_seconds, 2)


def timed_reference(spec, repeats=3):
    """Best-of-``repeats`` wall time of the set-based reference.

    The reference engines carry no memo, so repeats only filter timer
    noise; results are deterministic, so any repeat's run reports.
    """
    best = None
    reference = None
    for _ in range(repeats):
        started = time.perf_counter()
        reference = run_scenario(spec)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best, reference


def test_ext_scn_periodic_fast_vs_reference(benchmark, workload):
    """Periodic re-injection: set-based orbit decision vs int-mask
    cycle detection on the arc substrate."""
    graph, source = workload
    spec = scenario_spec("periodic:2,6", graph, [source])
    reference_seconds, reference = timed_reference(spec)

    fast, fast_seconds = timed_pedantic(
        benchmark, run_spec, args=(spec,), rounds=3, warmup_rounds=1
    )
    assert_stats_equal(fast, reference)

    speedup = reference_seconds / fast_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"periodic stepper only {speedup:.2f}x over the set-based "
        f"reference on {NODES} nodes"
    )
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend="pure",
        scenario="periodic:2,6",
        serial_seconds=reference_seconds,
        speedup=round(speedup, 2),
        crossover_nodes=CROSSOVER_NODES,
        crossover_speedup=crossover_speedup("periodic:2,6"),
    )


def test_ext_scn_multi_message_fast_vs_reference(benchmark, workload):
    """Concurrent floods: the per-message engine vs per-payload inline
    arc-mask floods sharing one set of round counters."""
    graph, _ = workload
    sources = graph.nodes()[:4]
    spec = scenario_spec("multi_message", graph, sources)
    reference_seconds, reference = timed_reference(spec)

    fast, fast_seconds = timed_pedantic(
        benchmark, run_spec, args=(spec,), rounds=3, warmup_rounds=1
    )
    assert_stats_equal(fast, reference)

    speedup = reference_seconds / fast_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"multi_message stepper only {speedup:.2f}x over the "
        f"per-message engine on {NODES} nodes"
    )
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend="pure",
        scenario="multi_message",
        batch=len(sources),
        serial_seconds=reference_seconds,
        speedup=round(speedup, 2),
    )


def test_ext_scn_random_delay_fast_vs_reference(benchmark, workload):
    """Random per-message delay: run_async + the counter-keyed
    adversary vs the step-granular mask stepper (same draws, same
    coordinates, so the runs are the same run)."""
    graph, source = workload
    # Random delay does not terminate on this family (held messages
    # keep the in-transit set alive), so the row fixes a step budget:
    # both sides simulate exactly ``budget`` steps of the same run.
    budget = 100
    spec = scenario_spec(
        "random_delay:0.3", graph, [source], seed=SEED, max_rounds=budget
    )
    reference_seconds, reference = timed_reference(spec, repeats=1)

    fast, fast_seconds = timed_pedantic(
        benchmark, run_spec, args=(spec,), rounds=3, warmup_rounds=1
    )
    assert_stats_equal(fast, reference)

    speedup = reference_seconds / fast_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"random_delay stepper only {speedup:.2f}x over the async "
        f"engine on {NODES} nodes"
    )
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend="pure",
        scenario="random_delay:0.3",
        budget=budget,
        serial_seconds=reference_seconds,
        speedup=round(speedup, 2),
        crossover_nodes=CROSSOVER_NODES,
        crossover_speedup=crossover_speedup(
            "random_delay:0.3", seed=SEED, max_rounds=budget
        ),
    )


def test_ext_scn_dynamic_schedule(benchmark, workload):
    """Dynamic topology via the arc-diff schedule: one superset index
    plus one mask AND per round, vs per-round set recomputation."""
    graph, source = workload
    budget = 64
    spec = scenario_spec(
        "dynamic:4", graph, [source], seed=SEED, max_rounds=budget
    )
    reference_seconds, reference = timed_reference(spec, repeats=1)

    fast, fast_seconds = timed_pedantic(
        benchmark, run_spec, args=(spec,), rounds=3, warmup_rounds=1
    )
    assert_stats_equal(fast, reference)

    speedup = reference_seconds / fast_seconds
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend="pure",
        scenario="dynamic:4",
        budget=budget,
        serial_seconds=reference_seconds,
        speedup=round(speedup, 2),
    )
