"""``FloodResult``: the unified answer shape of the ``repro.api`` facade.

Each execution tier historically answered in its own type --
:class:`~repro.fastpath.engine.IndexedRun` from the engine and the
pool, raw ``VariantRawRun`` tuples inside workers, scenario-specific
records (:class:`~repro.variants.periodic.PeriodicRun`,
:class:`~repro.sync.trace.ExecutionTrace`,
:class:`~repro.asynchrony.engine.AsyncRun`) from the set-based
variants.  :class:`FloodResult` puts one header on all of them: the
spec that produced the run, the engine that executed it, and the
headline statistics every tier can report (termination verdict, rounds
executed, message totals, per-round counts).  The tier-specific record
survives untouched in :attr:`FloodResult.raw`, so nothing is lost --
the equivalence tests compare ``result.raw`` bit-for-bit against the
lower tiers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Tuple

from repro.api.spec import FloodSpec
from repro.errors import ConfigurationError
from repro.graphs.graph import Node

if TYPE_CHECKING:
    from repro.fastpath.engine import IndexedRun


@dataclass
class FloodResult:
    """One flood's outcome, uniform across engine, pool, service and references.

    ``backend`` is the engine that actually ran: a fast-path backend
    name (``"pure"`` / ``"numpy"`` / ``"oracle"``) or
    ``"reference:<name>"`` for the pinned set-based reference engines
    (:func:`repro.api.scenarios.run_scenario`).
    ``termination_round`` counts executed rounds (delivery steps for
    the asynchronous ``random_delay`` scenario); ``round_edge_counts``
    is the per-round message count, round 1 first.  ``raw`` keeps the
    tier-native record (:class:`~repro.fastpath.engine.IndexedRun`,
    :class:`~repro.variants.periodic.PeriodicRun`, ...).
    """

    spec: FloodSpec
    backend: str
    terminated: bool
    termination_round: int
    total_messages: int
    round_edge_counts: List[int]
    reached_count: Optional[int] = None
    raw: object = None

    @classmethod
    def from_indexed(cls, spec: FloodSpec, run: Any) -> "FloodResult":
        """Wrap an :class:`~repro.fastpath.engine.IndexedRun`."""
        return cls(
            spec=spec,
            backend=run.backend,
            terminated=run.terminated,
            termination_round=run.termination_round,
            total_messages=run.total_messages,
            round_edge_counts=run.round_edge_counts,
            reached_count=run.reached_count,
            raw=run,
        )

    def _indexed(self) -> "IndexedRun":
        from repro.fastpath.engine import IndexedRun

        if not isinstance(self.raw, IndexedRun):
            raise ConfigurationError(
                f"this statistic is collected by the fast-path engines; "
                f"the {self.backend!r} result does not carry it"
            )
        return self.raw

    def sender_sets(self) -> List[FrozenSet[Node]]:
        """Per round, the frozenset of sending node labels (fast-path
        results collected with ``collect_senders=True`` only)."""
        return self._indexed().sender_sets()

    def receive_rounds(self) -> Dict[Node, Tuple[int, ...]]:
        """Per node label, the ascending receive rounds (fast-path
        results collected with ``collect_receives=True`` only)."""
        return self._indexed().receive_rounds()

    def coverage(self, component_size: int) -> float:
        """Fraction of a ``component_size``-node component reached."""
        return self._indexed().coverage(component_size)

    def __repr__(self) -> str:
        status = "terminated" if self.terminated else "cut off"
        return (
            f"FloodResult(rounds={self.termination_round}, "
            f"messages={self.total_messages}, backend={self.backend}, {status})"
        )
