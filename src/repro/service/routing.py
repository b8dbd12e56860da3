"""The service's backend-resolution hook.

The service resolves every request with
:func:`repro.fastpath.engine.resolve_backend`, the one resolution rule
all tiers share: variants run on the pure stepper, explicit names win,
and ``backend=None`` auto-selects a frontier engine.  The rule is a
pure function of the graph and the request, so the backend recorded on
a result -- and the micro-batch key it joins -- never depends on load
or request interleaving.
"""

from __future__ import annotations

from typing import Optional

from repro.fastpath.engine import resolve_backend
from repro.fastpath.indexed import IndexedGraph
from repro.fastpath.variants import VariantSpec


class Router:
    """The service's resolution hook: the one rule, no state of its own.

    Kept only for perfbench's binding table; delete with ROADMAP item 4.
    """

    def resolve(
        self,
        index: IndexedGraph,
        backend: Optional[str],
        variant: Optional[VariantSpec] = None,
    ) -> str:
        return resolve_backend(index, backend, variant)
