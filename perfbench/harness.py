"""Workload-independent pieces of the benchmark.

Seed derivation, the open-loop schedule, percentiles that carry their
sample counts, the result check against the set-based reference
engines, peak memory across the process tree, and the fixed calibration
loop recorded as context.
"""

from __future__ import annotations

import hashlib
import math
import random
import resource
import time
from typing import Any, Dict, List, Sequence, Tuple


def rng_for(seed: int, *tags: object) -> random.Random:
    """A private generator derived from ``seed`` and ``tags`` alone.

    Hash-derived rather than ``hash()``-derived, so the same seed gives
    the same stream in every interpreter (string hashing is salted).
    """
    text = ":".join(str(part) for part in (seed,) + tags)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def poisson_schedule(
    seed: int, rate: float, count: int
) -> List[float]:
    """Send offsets in seconds of ``count`` Poisson arrivals at ``rate``/s.

    The whole open-loop schedule comes from the seed: the same seed
    gives the same offsets, whatever the machine does while it runs.
    """
    rng = rng_for(seed, "schedule")
    offsets = []
    now = 0.0
    for _ in range(count):
        now += rng.expovariate(rate)
        offsets.append(now)
    return offsets


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """The ``q``-th percentile (linear interpolation) and the sample count.

    Returns ``(nan, 0)`` for an empty sample, so a caller can never
    report a percentile without also knowing what it rests on.
    """
    if not values:
        return math.nan, 0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    value = ordered[low] + (ordered[high] - ordered[low]) * fraction
    return value, len(ordered)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)[0]


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child.

    ``RUSAGE_CHILDREN`` reports the largest of the children that have
    been waited for, so this must be read after every pool is closed
    and joined.  Forked workers count the parent pages they map, so
    shared copy-on-write pages appear in both terms.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def calibration_ms(iterations: int = 200_000) -> float:
    """Time a fixed pure-Python loop: context for the run, never a metric."""
    start = time.perf_counter()
    total = 0
    for value in range(iterations):
        total += value * value % 7
    elapsed = time.perf_counter() - start
    if total < 0:  # keeps the loop from being optimised into nothing
        raise AssertionError
    return elapsed * 1000.0


def run_signature(result: Any) -> Tuple:
    """The statistics both the fast path and the references report."""
    return (
        bool(result.terminated),
        int(result.termination_round),
        int(result.total_messages),
        tuple(result.round_edge_counts),
    )


def reference_signature(spec: Any) -> Tuple:
    """The same statistics from the spec's pinned set-based engine.

    Plain specs run on :func:`repro.core.amnesiac.simulate_reference`;
    variant specs on the reference engine their stepper was ported
    from.
    """
    if spec.variant is None:
        from repro.core.amnesiac import simulate_reference

        return run_signature(
            simulate_reference(spec.graph, spec.sources, spec.max_rounds)
        )
    from repro.api.scenarios import run_scenario

    return run_signature(run_scenario(spec))


def sample(items: Sequence[Any], seed: int, size: int) -> List[Any]:
    """A seeded sample of ``items`` (all of them when there are few), in order."""
    if len(items) <= size:
        return list(items)
    chosen = sorted(rng_for(seed, "check").sample(range(len(items)), size))
    return [items[position] for position in chosen]


def check(pairs: Sequence[Tuple[Any, Any]]) -> Tuple[int, int]:
    """Check ``(spec, result)`` pairs against the references; (checked, wrong).

    A result is a run (fast path or service) or, for all-pairs rows, the
    termination round alone.
    """
    wrong = 0
    for spec, result in pairs:
        expected = reference_signature(spec)
        if isinstance(result, int):  # an all-pairs row carries the round only
            wrong += result != expected[1]
        elif run_signature(result) != expected:
            wrong += 1
    return len(pairs), wrong


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}
