"""EXT-VAR: the stochastic/memory variants on the arc-mask fast path.

The Monte-Carlo variant surveys (hundreds of seeded trials per
parameter point) were the last major workload still running on the
set-based stepper and the per-message engine.  These rows measure the
port onto :mod:`repro.fastpath.variants` on the acceptance workload --
the 10k-node ER scaling family:

* ``lossy_survey`` -- the reference Monte-Carlo survey (synchronous
  engine + counter-based Bernoulli loss) vs
  :func:`repro.fastpath.variant_survey` with the same seed: the two
  summaries are asserted *equal* (same counter RNG coordinates, same
  arithmetic), and the fast path must win by >= 5x on the full
  workload (>= 1.5x on the smoke-sized one -- fixed costs dominate
  small graphs);
* ``parallel`` -- the same survey through a 2-worker pool, asserted
  bit-identical to serial; the speedup ratio is recorded, and asserted
  only on machines with >= 4 usable cores (the 1-core-container
  convention of ``bench_parallel.py``);
* ``kmemory`` -- the deterministic k-memory stepper vs the
  message-passing engine, equality asserted, speedup recorded.

The lossy row runs in the *subcritical* regime (90% loss): branching
factor ~0.7, so every trial dies out quickly and the measured cost is
the honest per-trial cost of the survey shape.  (The supercritical
regime self-sustains until the budget on this family -- covered by the
equivalence tests with tight budgets, deliberately not benchmarked at
10k nodes.)

Set ``REPRO_BENCH_QUICK=1`` (or run ``benchmarks/run_bench.py
--quick``) to shrink the workload to a smoke-sized batch.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.fastpath import bernoulli_loss, k_memory, sweep, variant_survey
from repro.graphs import erdos_renyi
from repro.parallel import worker_count
from repro.variants import k_memory_trace, lossy_survey

from conftest import record, timed_pedantic

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

NODES = 1_000 if QUICK else 10_000
TRIALS = 16 if QUICK else 64
LOSS_RATE = 0.9
SEED = 5
BUDGET = 400
MIN_SPEEDUP = 1.5 if QUICK else 5.0


@pytest.fixture(scope="module")
def workload():
    """The acceptance workload: the 10k-node ER scaling family."""
    graph = erdos_renyi(NODES, min(1.0, 8.0 / NODES), seed=NODES, connected=True)
    return graph, graph.nodes()[0]


@pytest.fixture(scope="module")
def reference_survey(workload):
    """Best-of-3 reference (engine-based) survey wall time + summary."""
    graph, source = workload
    best = None
    summary = None
    for _ in range(3):
        started = time.perf_counter()
        summary = lossy_survey(
            graph, source, LOSS_RATE, TRIALS, seed=SEED, max_rounds=BUDGET
        )
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best, summary


def test_ext_var_lossy_survey_fast_vs_reference(
    benchmark, workload, reference_survey
):
    """The acceptance row: fast-path Monte-Carlo lossy survey.

    Equal summaries (bit-identical floats -- shared counter RNG, same
    summation order) and a serially-asserted speedup over the
    per-message engine.
    """
    graph, source = workload
    reference_seconds, reference = reference_survey
    spec = bernoulli_loss(LOSS_RATE, seed=SEED)

    fast, fast_seconds = timed_pedantic(
        benchmark,
        variant_survey,
        args=(graph, source, spec, TRIALS),
        kwargs={"max_rounds": BUDGET, "workers": None},
    )
    assert fast.termination_rate == reference.termination_rate
    assert fast.mean_rounds == reference.mean_rounds
    assert fast.mean_messages == reference.mean_messages
    assert fast.coverage == reference.coverage

    speedup = reference_seconds / fast_seconds
    assert speedup >= MIN_SPEEDUP, (
        f"fast-path lossy survey only {speedup:.2f}x over the reference "
        f"engine on {NODES} nodes x {TRIALS} trials"
    )
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend="pure",
        variant="loss",
        loss_rate=LOSS_RATE,
        batch=TRIALS,
        workers=0,
        serial_seconds=reference_seconds,
        speedup=round(speedup, 2),
    )


def test_ext_var_lossy_survey_parallel(benchmark, workload):
    """The sharded survey: bit-identical to serial, ratio recorded.

    Pool construction is inside the timed region (the cost a fresh
    parallel survey pays); the >= 2x assertion arms only on >= 4
    usable cores and the full workload, per the repo convention --
    the measured ratio and core count land in the row either way.
    """
    graph, source = workload
    spec = bernoulli_loss(LOSS_RATE, seed=SEED)
    started = time.perf_counter()
    serial = variant_survey(
        graph, source, spec, TRIALS, max_rounds=BUDGET, workers=None
    )
    serial_seconds = time.perf_counter() - started

    sharded, sharded_seconds = timed_pedantic(
        benchmark,
        variant_survey,
        args=(graph, source, spec, TRIALS),
        kwargs={"max_rounds": BUDGET, "workers": 2},
    )
    assert sharded == serial  # bit-identical summary, pool or no pool

    speedup = serial_seconds / sharded_seconds
    cores = worker_count()
    if cores >= 4 and not QUICK:
        assert speedup >= 1.0, (
            f"2-worker variant survey regressed to {speedup:.2f}x "
            f"on {cores} usable cores"
        )
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend="pure",
        variant="loss",
        loss_rate=LOSS_RATE,
        batch=TRIALS,
        workers=2,
        usable_cores=cores,
        serial_seconds=serial_seconds,
        speedup=round(speedup, 2),
    )


def test_ext_var_kmemory_fast_vs_engine(benchmark, workload):
    """The deterministic k-memory stepper vs the per-message engine."""
    graph, source = workload
    k = 2
    budget = 64

    started = time.perf_counter()
    trace = k_memory_trace(graph, source, k, max_rounds=budget)
    engine_seconds = time.perf_counter() - started

    runs, fast_seconds = timed_pedantic(
        benchmark,
        sweep,
        args=(graph, [[source]]),
        kwargs={"max_rounds": budget, "variant": k_memory(k)},
    )
    fast = runs[0]
    assert fast.terminated == trace.terminated
    assert fast.termination_round == trace.rounds_executed
    assert fast.total_messages == trace.total_messages()

    speedup = engine_seconds / fast_seconds
    record(
        benchmark,
        nodes=graph.num_nodes,
        edges=graph.num_edges,
        backend="pure",
        variant=f"kmemory(k={k})",
        batch=1,
        workers=0,
        serial_seconds=engine_seconds,
        speedup=round(speedup, 2),
    )
