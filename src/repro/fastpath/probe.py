"""Cheap rounds probes for rounds-aware backend routing.

The frontier engines pay per round -- O(messages) or O(arcs) each --
while the oracle backend pays O(n + m) once, independent of flood
length.  Which one is the right default therefore hinges on a single
number the caller usually does not know: *how many rounds will this
flood run?*

The double cover answers that question at BFS cost.  The predicted
termination round of a flood from source ``s`` is the largest finite
BFS level of the implicit double cover rooted at ``(s, 0)`` (see
:mod:`repro.fastpath.oracle_backend`), so a handful of single-source
cover BFS passes from evenly spaced sample nodes -- O(samples * (n +
m)) total, the same order as *one* oracle-backed run -- yields an
honest estimate of the graph's round scale.  Long-flood families (odd
cycles: n rounds) and short dense ones (expanders: a handful of
rounds) separate by orders of magnitude, so a coarse threshold is
enough to route between them.

The probe is deterministic (fixed sample positions, no randomness), so
routing decisions -- and therefore the backend recorded on every
result -- are reproducible for a given graph and budget.
:func:`index_probe` memoises it on the :class:`IndexedGraph` itself, so
every tier -- serial sweeps, warm pools, the service -- pays for it at
most once per index.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.fastpath.indexed import IndexedGraph
from repro.fastpath.oracle_backend import cover_levels

PROBE_SAMPLES = 4
"""Default number of sampled single-source cover BFS passes."""

ORACLE_ROUND_THRESHOLD = 32
"""Expected rounds at which routing switches to the oracle backend.

Below the threshold a frontier engine finishes in a handful of
per-round passes and wins on constants; above it the per-round cost
compounds while the oracle stays O(n + m) total.  The benchmark rows
(``BENCH_fastpath.json``) put the crossover well under this value on
the measured families -- the threshold is deliberately conservative so
routing only overrides the frontier engines when the flood is
unambiguously round-heavy.
"""


def probe_termination_rounds(
    index: IndexedGraph, samples: int = PROBE_SAMPLES
) -> Tuple[int, ...]:
    """Predicted single-source termination rounds from sampled sources.

    Runs one implicit-cover BFS from each of ``samples`` evenly spaced
    node ids and returns the predicted termination round of a flood
    started at each -- exact per sample, O(samples * (n + m)) total.
    The spread, not any single value, is the signal: ``max`` of the
    tuple estimates the graph's round scale for routing.
    """
    if index.n == 0 or samples < 1:
        return ()
    step = max(1, index.n // samples)
    sample_ids = list(range(0, index.n, step))[:samples]
    rounds = []
    for source in sample_ids:
        dist = cover_levels(index, [source])
        rounds.append(max(dist))
    return tuple(rounds)


def index_probe(index: IndexedGraph) -> Tuple[int, ...]:
    """The default-sample probe of ``index``, computed once per index.

    The memo lives in the index's transient ``_probe_rounds`` slot (read
    and written only here, and dropped on pickling like the backends'
    caches), so it lives exactly as long as the frozen CSR it describes.
    """
    rounds = index._probe_rounds
    if rounds is None:
        rounds = probe_termination_rounds(index)
        index._probe_rounds = rounds
    return rounds


def expected_rounds(
    probe_rounds: Sequence[int], budget: Optional[int] = None
) -> int:
    """The routing estimate: worst sampled round count, clamped to budget.

    A budget caps how many rounds a frontier engine can actually
    execute, so a tight budget makes the per-round engines cheap again
    even on long-flood families -- routing must compare against
    ``min(predicted, budget)``, not the raw prediction.
    """
    if not probe_rounds:
        return 0
    worst = max(probe_rounds)
    if budget is not None and budget < worst:
        return budget
    return worst


def routed_backend(
    index: IndexedGraph,
    probe_rounds: Sequence[int],
    budget: Optional[int] = None,
) -> str:
    """Pick a backend from a rounds probe: oracle for long floods.

    Returns ``"oracle"`` when the expected executed rounds reach
    :data:`ORACLE_ROUND_THRESHOLD`, else defers to the frontier
    auto-selection (numpy/pure) of
    :func:`~repro.fastpath.engine.select_backend`.  Unlike plain
    auto-selection this *can* choose the oracle -- the probe supplies
    the round-scale knowledge that bare ``backend=None`` lacks.
    """
    from repro.fastpath.engine import ORACLE, select_backend

    if expected_rounds(probe_rounds, budget) >= ORACLE_ROUND_THRESHOLD:
        return ORACLE
    return select_backend(index, None)
