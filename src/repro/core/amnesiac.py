"""Amnesiac Flooding (Definition 1.1) -- the paper's algorithm.

Two independent implementations are provided and cross-checked by the
test suite:

1. :class:`AmnesiacFlooding`, a stateless
   :class:`~repro.sync.node.NodeAlgorithm` running on the generic
   synchronous engine.  This is the *faithful* form: each node sees only
   its inbox for the current round and its neighbour list, exactly as in
   the paper ("memory only of the present round").

2. :func:`simulate_reference`, a frontier-based simulator that tracks
   the set of directed edges carrying ``M`` each round as a Python set
   of node tuples.  The global state of amnesiac flooding *is* that
   edge set -- nodes keep nothing -- so this simulator is exact, and
   its transparent three-line step (:func:`step_frontier`) makes it the
   reference the fast path is checked against.

3. :func:`simulate`, the production entry point: same statistics,
   delegated to the CSR-indexed engines of :mod:`repro.fastpath`
   (pure-Python bitmasks, or numpy when importable and the graph is
   large).  The equivalence-matrix tests hold all three bit-for-bit
   equal.

All count rounds the paper's way: the initiator sends in round 1 and
the process terminates in round ``T`` when messages are sent in round
``T`` but none in round ``T + 1``.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import ConfigurationError, NodeNotFoundError, NonTerminationError
# The fast path first: it imports repro.api.spec on the way in, and
# importing the api package first would close an import cycle.
from repro.fastpath import run_spec
from repro.api.spec import FloodSpec
from repro.graphs.graph import Graph, Node
from repro.sync.engine import default_round_budget, run_algorithm
from repro.sync.message import FLOOD_PAYLOAD, Message, Send
from repro.sync.node import NodeContext, StatelessAlgorithm, send_to_all, send_to_complement
from repro.sync.trace import ExecutionTrace


class AmnesiacFlooding(StatelessAlgorithm):
    """The amnesiac flooding node algorithm.

    A node that receives the message forwards it to exactly those
    neighbours it did *not* receive it from in the current round, then
    forgets everything.  The per-node state is ``None`` -- statelessness
    is the property the paper studies, and the engine enforces that the
    algorithm can only react to the current round's inbox.
    """

    def __init__(self, payload: Hashable = FLOOD_PAYLOAD) -> None:
        self.payload = payload

    def on_start(self, state: None, ctx: NodeContext) -> List[Send]:
        """Round 1: the distinguished node sends ``M`` to all neighbours."""
        return send_to_all(ctx, self.payload)

    def on_receive(
        self, state: None, inbox: List[Message], ctx: NodeContext
    ) -> List[Send]:
        """Forward ``M`` to the complement of this round's senders."""
        senders = [m.sender for m in inbox if m.payload == self.payload]
        if not senders:
            return []
        return send_to_complement(ctx, senders, self.payload)


def flood_trace(
    graph: Graph,
    sources: Iterable[Node],
    max_rounds: Optional[int] = None,
    payload: Hashable = FLOOD_PAYLOAD,
) -> ExecutionTrace:
    """Run amnesiac flooding on the message-passing engine; full trace.

    ``sources`` may be a single-element list (the paper's distinguished
    node) or a larger set (the multi-source extension).
    """
    return run_algorithm(
        graph,
        AmnesiacFlooding(payload),
        initiators=sources,
        max_rounds=max_rounds,
    )


# ----------------------------------------------------------------------
# Fast frontier simulator
# ----------------------------------------------------------------------

DirectedEdge = Tuple[Node, Node]


@dataclass
class FloodingRun:
    """Result of a fast amnesiac-flooding simulation.

    Attributes
    ----------
    graph, sources:
        The inputs.
    terminated:
        True iff the run reached a round with no message in flight
        within its budget (always true on sound inputs -- Theorem 3.1).
    termination_round:
        The last round in which a message was sent (0 if the sources
        have no neighbours).
    total_messages:
        Point-to-point message count over the run.
    receive_rounds:
        For each node, the ascending tuple of rounds at which it
        received the message (empty for unreached nodes; sources start
        holding the message, which is not a receipt).
    round_edge_counts:
        ``round_edge_counts[i]`` is the number of directed messages sent
        in round ``i + 1``.
    sender_sets:
        For each round (1-based index ``i + 1``), the frozenset of nodes
        that sent during that round -- the "circled nodes" of the
        paper's figures.
    """

    graph: Graph
    sources: Tuple[Node, ...]
    terminated: bool
    termination_round: int
    total_messages: int
    receive_rounds: Dict[Node, Tuple[int, ...]]
    round_edge_counts: List[int] = field(default_factory=list)
    sender_sets: List[FrozenSet[Node]] = field(default_factory=list)

    def receive_counts(self) -> Dict[Node, int]:
        """Number of rounds each node received the message in."""
        return {node: len(rounds) for node, rounds in self.receive_rounds.items()}

    def nodes_reached(self) -> Set[Node]:
        """Nodes that held the message at some point (sources included)."""
        reached = {
            node for node, rounds in self.receive_rounds.items() if rounds
        }
        reached.update(self.sources)
        return reached

    def round_sets(self) -> List[Set[Node]]:
        """The paper's ``R_0, R_1, ..., R_T`` receiver sets."""
        sets: List[Set[Node]] = [set(self.sources)]
        for round_number in range(1, self.termination_round + 1):
            sets.append(
                {
                    node
                    for node, rounds in self.receive_rounds.items()
                    if round_number in rounds
                }
            )
        return sets

    def __repr__(self) -> str:
        status = "terminated" if self.terminated else "cut off"
        return (
            f"FloodingRun(rounds={self.termination_round}, "
            f"messages={self.total_messages}, {status})"
        )


def initial_frontier(graph: Graph, sources: Sequence[Node]) -> Set[DirectedEdge]:
    """The directed edges carrying ``M`` in round 1: sources to all neighbours."""
    # A set comprehension: its output is unordered, so walking the
    # neighbour sets directly is order-free (REP002-clean by shape).
    return {
        (source, neighbour)
        for source in sources
        for neighbour in graph.neighbors(source)
    }


def step_frontier(graph: Graph, frontier: Set[DirectedEdge]) -> Set[DirectedEdge]:
    """One round of amnesiac flooding on the directed-edge frontier.

    Every receiver forwards to the complement of the set of neighbours
    it heard from; the result is the next round's directed edge set.
    This three-line function *is* the global dynamics of the process --
    there is no other state.
    """
    heard_from: Dict[Node, Set[Node]] = defaultdict(set)
    for sender, receiver in frontier:
        heard_from[receiver].add(sender)
    return {
        (receiver, neighbour)
        for receiver, senders in heard_from.items()
        for neighbour in graph.neighbors(receiver)
        if neighbour not in senders
    }


def simulate(
    graph: Graph,
    sources: Iterable[Node],
    max_rounds: Optional[int] = None,
    raise_on_budget: bool = False,
    backend: Optional[str] = None,
) -> FloodingRun:
    """Fast exact simulation of amnesiac flooding.

    Parameters mirror :func:`flood_trace`; the result is a
    :class:`FloodingRun` carrying every statistic the analysis layer
    needs without materialising per-message objects.  The run executes
    on the CSR-indexed engines of :mod:`repro.fastpath`; ``backend``
    pins ``"pure"`` or ``"numpy"``; the default auto-selects one.

    Raises
    ------
    ConfigurationError
        If no sources are given, ``max_rounds < 1``, or ``backend`` is
        unknown/unavailable.
    NonTerminationError
        If ``raise_on_budget`` is set and the budget is exhausted.
    """
    spec = FloodSpec(
        graph=graph,
        sources=tuple(sources),
        max_rounds=max_rounds,
        backend=backend,
        collect_senders=True,
        collect_receives=True,
    )
    run = run_spec(spec)
    if raise_on_budget and not run.terminated:
        raise NonTerminationError(spec.max_rounds)
    return FloodingRun(
        graph=graph,
        sources=run.sources,
        terminated=run.terminated,
        termination_round=run.termination_round,
        total_messages=run.total_messages,
        receive_rounds=run.receive_rounds(),
        round_edge_counts=run.round_edge_counts,
        sender_sets=run.sender_sets(),
    )


def simulate_reference(
    graph: Graph,
    sources: Iterable[Node],
    max_rounds: Optional[int] = None,
    raise_on_budget: bool = False,
) -> FloodingRun:
    """Set-based reference simulation of amnesiac flooding.

    The original frontier simulator, kept as the transparent
    second opinion: the equivalence-matrix tests check the fast
    backends against it, and the scaling benchmarks use it as the
    speedup baseline.  Semantics are identical to :func:`simulate`.
    """
    if max_rounds is not None and max_rounds < 1:
        raise ConfigurationError("max_rounds must be >= 1")
    source_list: List[Node] = []
    seen: Set[Node] = set()
    for source in sources:
        if not graph.has_node(source):
            raise NodeNotFoundError(source)
        if source not in seen:
            seen.add(source)
            source_list.append(source)
    if not source_list:
        raise ConfigurationError("at least one source is required")

    budget = default_round_budget(graph) if max_rounds is None else max_rounds
    receive_rounds: Dict[Node, List[int]] = {node: [] for node in graph.nodes()}
    round_edge_counts: List[int] = []
    sender_sets: List[FrozenSet[Node]] = []
    total_messages = 0
    terminated = True

    frontier = initial_frontier(graph, source_list)
    round_number = 1
    while frontier:
        if round_number > budget:
            terminated = False
            if raise_on_budget:
                raise NonTerminationError(budget)
            break
        round_edge_counts.append(len(frontier))
        sender_sets.append(frozenset(sender for sender, _ in frontier))
        total_messages += len(frontier)
        for _, receiver in frontier:
            rounds = receive_rounds[receiver]
            if not rounds or rounds[-1] != round_number:
                rounds.append(round_number)
        frontier = step_frontier(graph, frontier)
        round_number += 1

    return FloodingRun(
        graph=graph,
        sources=tuple(source_list),
        terminated=terminated,
        termination_round=len(round_edge_counts) if terminated else round_number - 1,
        total_messages=total_messages,
        receive_rounds={
            node: tuple(rounds) for node, rounds in receive_rounds.items()
        },
        round_edge_counts=round_edge_counts,
        sender_sets=sender_sets,
    )


def termination_round(graph: Graph, source: Node) -> int:
    """The round in which amnesiac flooding from ``source`` terminates."""
    return run_spec(FloodSpec(graph=graph, sources=(source,))).termination_round


def message_complexity(graph: Graph, source: Node) -> int:
    """Total messages amnesiac flooding from ``source`` sends."""
    return run_spec(FloodSpec(graph=graph, sources=(source,))).total_messages
