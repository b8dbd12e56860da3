"""Shared helpers for the benchmark suite.

Every benchmark regenerates one row of the paper's evaluation (a figure
or a theorem-level claim) and times it with pytest-benchmark.  The
*correctness* of each regenerated artefact is asserted inside the
benchmark as well, so ``pytest benchmarks/ --benchmark-only`` doubles
as a reproduction run: a performance report whose every row has been
re-verified against the paper's expectation.

Measured-vs-expected values are attached to ``benchmark.extra_info`` so
they appear in ``--benchmark-json`` exports.
"""

from __future__ import annotations

import time


def record(benchmark, **info) -> None:
    """Attach expected/measured observables to the benchmark report."""
    for key, value in info.items():
        benchmark.extra_info[key] = value


def timed_pedantic(
    benchmark, target, args=(), kwargs=None, rounds=1, warmup_rounds=0
):
    """``benchmark.pedantic`` that also returns its fastest timed round.

    Returns ``(result, seconds)``.  The time comes from this helper's
    own ``perf_counter`` reads around each call, not from
    ``benchmark.stats``, which is ``None`` under
    ``--benchmark-disable`` (pedantic then calls the target once, and
    that one call is the time).  So a row computes its ratio and runs
    every assert in both modes.
    """
    times = []

    def timed(*call_args, **call_kwargs):
        started = time.perf_counter()
        result = target(*call_args, **call_kwargs)
        times.append(time.perf_counter() - started)
        return result

    result = benchmark.pedantic(
        timed,
        args=args,
        kwargs=kwargs or {},
        rounds=rounds,
        iterations=1,
        warmup_rounds=warmup_rounds,
    )
    return result, min(times[-rounds:])
