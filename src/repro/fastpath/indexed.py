"""CSR indexing: freeze a :class:`~repro.graphs.graph.Graph` into flat arrays.

The hashable-node :class:`Graph` is the right type for building and
analysing topologies, but its dict-of-frozensets adjacency is the wrong
shape for the flooding hot loop: every round of the set-based simulator
re-hashes node labels and rebuilds tuple sets.  :class:`IndexedGraph`
freezes a graph once into compressed-sparse-row form:

* ``labels`` / ``ids`` -- the label <-> contiguous-int-id bijection
  (ids follow :func:`~repro.graphs.graph.sort_nodes` order, so id order
  agrees with ``graph.nodes()``);
* ``offsets`` / ``targets`` -- the CSR adjacency: the neighbours of
  node ``v`` are ``targets[offsets[v]:offsets[v + 1]]``, ascending.
  Each index into ``targets`` is a *slot*: slot ``j`` in ``v``'s block
  is the directed arc ``v -> targets[j]``.  The arrays are flat Python
  lists of small ints -- ``list`` indexing returns the cached int
  object where ``array('l')`` would box a fresh one per access, which
  is a measurable difference in the pure backend's per-message loop
  (the numpy backend converts them to ``int64`` ndarrays once);
* ``reverse_slot`` -- for every slot, the slot of the opposite arc
  (an involution over slots);
* ``reverse_bit`` -- ``1 << local_position(reverse_slot)``: the bit a
  delivery along the arc sets in the *receiver's* heard-mask;
* ``full_masks`` -- per node, the all-neighbours bitmask
  ``(1 << degree) - 1``.

Indexing is O(n + m log d) and is amortised across runs by
:meth:`IndexedGraph.of`, a small equality-keyed LRU (graphs are
immutable and hashable, so repeated sweeps over the same topology --
``all_pairs_termination``, the configuration census, the scaling
benchmarks -- index exactly once).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from typing import Dict, Iterable, List, Tuple

from repro.errors import ConfigurationError, NodeNotFoundError
from repro.graphs.graph import Graph, Node

# repro-lint: disable=REP007 -- pure memo LRU: an IndexedGraph is a pure function of its Graph key, so per-process warmth never changes results; stripped from pickles below
_INDEX_CACHE: "OrderedDict[Graph, IndexedGraph]" = OrderedDict()
_INDEX_CACHE_SIZE = 16


class IndexedGraph:
    """An immutable CSR view of a :class:`Graph` for the fast backends."""

    __slots__ = (
        "graph",
        "n",
        "num_arcs",
        "labels",
        "ids",
        "offsets",
        "targets",
        "reverse_slot",
        "reverse_bit",
        "full_masks",
        "_numpy_arrays",
        "_send_cache",
    )

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.labels: Tuple[Node, ...] = graph.nodes()
        self.ids: Dict[Node, int] = {
            label: index for index, label in enumerate(self.labels)
        }
        self.n = len(self.labels)

        offsets = [0]
        targets: List[int] = []
        ids = self.ids
        for label in self.labels:
            block = sorted(ids[neighbour] for neighbour in graph.neighbors(label))
            targets.extend(block)
            offsets.append(len(targets))
        self.offsets = offsets
        self.targets = targets
        self.num_arcs = len(targets)

        reverse_slot: List[int] = []
        reverse_bit: List[int] = []
        full_masks: List[int] = []
        for v in range(self.n):
            start, stop = offsets[v], offsets[v + 1]
            full_masks.append((1 << (stop - start)) - 1)
            for j in range(start, stop):
                u = targets[j]
                mirror = self._slot_of(u, v)
                reverse_slot.append(mirror)
                reverse_bit.append(1 << (mirror - offsets[u]))
        self.reverse_slot = reverse_slot
        self.reverse_bit = reverse_bit
        self.full_masks = full_masks
        self._numpy_arrays = None  # lazily built by the numpy backend
        self._send_cache = None  # lazily built by the pure backend

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    #
    # Indexes cross process boundaries in :mod:`repro.parallel`: the
    # sweep pool pickles the frozen CSR once per worker.  Only the CSR
    # arrays travel -- the memo caches (`_send_cache`, `_numpy_arrays`)
    # are process-local working state, can be large, and rebuild lazily
    # on first use, so they are dropped on the wire.

    _TRANSIENT_SLOTS = ("_numpy_arrays", "_send_cache")

    def __getstate__(self) -> Dict[str, object]:
        return {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in self._TRANSIENT_SLOTS
        }

    def __setstate__(self, state: Dict[str, object]) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        for slot in self._TRANSIENT_SLOTS:
            setattr(self, slot, None)

    # ------------------------------------------------------------------

    @classmethod
    def of(cls, graph: Graph) -> "IndexedGraph":
        """The cached index of ``graph`` (built on first use).

        Keyed by graph equality: re-running a sweep over an equal graph
        object reuses the index even across call sites.
        """
        cached = _INDEX_CACHE.get(graph)
        if cached is not None:
            _INDEX_CACHE.move_to_end(graph)
            return cached
        index = cls(graph)
        _INDEX_CACHE[graph] = index
        while len(_INDEX_CACHE) > _INDEX_CACHE_SIZE:
            _INDEX_CACHE.popitem(last=False)
        return index

    # ------------------------------------------------------------------
    # Slot arithmetic
    # ------------------------------------------------------------------

    def _slot_of(self, v: int, u: int) -> int:
        """The slot of directed arc ``v -> u`` (ids); raises if absent."""
        start, stop = self.offsets[v], self.offsets[v + 1]
        j = bisect_left(self.targets, u, start, stop)
        if j == stop or self.targets[j] != u:
            raise ConfigurationError(
                f"no arc between ids {v} and {u} in the indexed graph"
            )
        return j

    def degree(self, v: int) -> int:
        """Degree of node id ``v``."""
        return self.offsets[v + 1] - self.offsets[v]

    def owner_of_slot(self, j: int) -> int:
        """The node id whose adjacency block contains slot ``j``.

        The reverse of slot ``j`` lives in the target's block and points
        back at the owner, so no offset scan is needed.
        """
        return self.targets[self.reverse_slot[j]]

    def arc_slot(self, sender: Node, receiver: Node) -> int:
        """The slot of the labelled directed arc ``sender -> receiver``."""
        try:
            v = self.ids[sender]
            u = self.ids[receiver]
        except KeyError as exc:
            raise NodeNotFoundError(exc.args[0]) from None
        return self._slot_of(v, u)

    def arc_of_slot(self, j: int) -> Tuple[Node, Node]:
        """The labelled directed arc stored at slot ``j``."""
        return (
            self.labels[self.owner_of_slot(j)],
            self.labels[self.targets[j]],
        )

    # ------------------------------------------------------------------
    # Validation helpers shared by the engines
    # ------------------------------------------------------------------

    def resolve_sources(self, sources: Iterable[Node]) -> List[int]:
        """Validate and dedupe ``sources`` into ids (first-seen order)."""
        resolved: List[int] = []
        seen = set()
        for label in sources:
            node_id = self.ids.get(label)
            if node_id is None:
                raise NodeNotFoundError(label)
            if node_id not in seen:
                seen.add(node_id)
                resolved.append(node_id)
        if not resolved:
            raise ConfigurationError("at least one source is required")
        return resolved

    def __repr__(self) -> str:
        return f"IndexedGraph(n={self.n}, arcs={self.num_arcs})"
