"""Sampled double-cover rounds probes; backend selection does not use them.

The predicted termination round of a flood from source ``s`` is the
largest finite BFS level of the implicit double cover rooted at
``(s, 0)`` (see :mod:`repro.fastpath.oracle_backend`), so a handful of
single-source cover BFS passes from evenly spaced sample nodes give an
exact per-sample estimate of a graph's round scale.

Backend selection does not consult this probe: ``backend=None``
resolves through :func:`repro.fastpath.engine.select_backend` at every
tier, because the pure engine's total work on a long flood is
O(n + m + rounds) -- the same order as the oracle, with smaller
constants.  Both names here are kept only for perfbench's binding
table; delete with ROADMAP item 4.
"""

from __future__ import annotations

from typing import Tuple

from repro.fastpath.indexed import IndexedGraph
from repro.fastpath.oracle_backend import cover_levels


def probe_termination_rounds(
    index: IndexedGraph, samples: int = 4
) -> Tuple[int, ...]:
    """Predicted single-source termination rounds from sampled sources.

    Runs one implicit-cover BFS from each of ``samples`` evenly spaced
    node ids and returns the predicted termination round of a flood
    started at each -- exact per sample, O(samples * (n + m)) total.
    """
    if index.n == 0 or samples < 1:
        return ()
    step = max(1, index.n // samples)
    sample_ids = list(range(0, index.n, step))[:samples]
    return tuple(max(cover_levels(index, [source])) for source in sample_ids)


def routed_backend(index: IndexedGraph) -> str:
    """Delegates to :func:`~repro.fastpath.engine.select_backend`.

    Kept only for perfbench's binding table; delete with ROADMAP item 4.
    """
    from repro.fastpath.engine import select_backend

    return select_backend(index, None)
