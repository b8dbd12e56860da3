"""Rounds-aware backend routing for the flood-query service.

The service resolves every request with the batch rule of
:func:`repro.fastpath.engine.resolve_backend`, the one resolution rule
all tiers share: variants run on the pure stepper, explicit names (and
``probe=False``) win, and ``backend=None`` consults the rounds probe
memoised on the index, routing long floods to the O(n + m) oracle.
The rule is a pure function of (graph, budget), so the backend recorded
on a result -- and the micro-batch key it joins -- never depends on
load or request interleaving.
"""

from __future__ import annotations

from typing import Optional

from repro.fastpath.engine import resolve_backend
from repro.fastpath.indexed import IndexedGraph
from repro.fastpath.variants import VariantSpec


class Router:
    """The service's routing hook: the batch rule, no state of its own."""

    def resolve(
        self,
        index: IndexedGraph,
        backend: Optional[str],
        budget: int,
        variant: Optional[VariantSpec] = None,
        probe: bool = True,
    ) -> str:
        return resolve_backend(index, backend, budget, variant, probe, batch=True)
