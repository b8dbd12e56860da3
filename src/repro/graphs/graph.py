"""A small, dependency-free undirected graph type.

The simulator operates on :class:`Graph`, an immutable undirected simple
graph stored as an adjacency map of frozen neighbour sets.  Keeping the
type immutable makes traces reproducible (a simulation can never mutate
its input topology) and makes graphs safely shareable between
experiments running in the same process.

``networkx`` is supported for interop (:meth:`Graph.from_networkx`,
:meth:`Graph.to_networkx`) but is never required at simulation time.

Nodes may be any hashable object; the generators in
:mod:`repro.graphs.generators` use ``int`` labels and the paper-figure
reproductions use the paper's letter labels (``"a"``, ``"b"``, ...).
"""

from __future__ import annotations

import hashlib
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Tuple,
)

from repro.errors import GraphError, NodeNotFoundError

Node = Hashable
Edge = Tuple[Node, Node]


def sort_nodes(nodes: Iterable[Node]) -> List[Node]:
    """Sort nodes deterministically: naturally when comparable, else by ``repr``.

    This is *the* node ordering of the package.  :meth:`Graph.nodes`,
    :meth:`Graph.edges`, the synchronous engine's neighbour lists and
    inbox iteration, and the fast-path CSR indexing all use it, so every
    layer agrees on what "deterministic order" means (``repr`` ordering
    alone would put the int node ``10`` before ``2``).
    """
    items = list(nodes)
    try:
        return sorted(items)  # type: ignore[type-var]
    except TypeError:
        return sorted(items, key=repr)


def _normalise_edge(u: Node, v: Node) -> Edge:
    """Return a canonical representation of the undirected edge ``{u, v}``.

    Uses a deterministic ordering that works for mixed node types by
    falling back to ``repr`` ordering when direct comparison fails.
    """
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


class Graph:
    """An immutable undirected simple graph.

    Parameters
    ----------
    adjacency:
        Mapping from each node to an iterable of its neighbours.  The
        mapping must be symmetric-closed *or* merely edge-describing:
        any neighbour mentioned is added as a node and the reverse arc
        is inserted automatically, so ``Graph({0: [1]})`` and
        ``Graph({0: [1], 1: [0]})`` are the same graph.

    Raises
    ------
    GraphError
        If a self-loop is supplied (the model of the paper is a simple
        graph; a node never messages itself).
    """

    __slots__ = ("_adj", "_nodes", "_num_edges", "_hash", "_digest")

    def __init__(self, adjacency: Mapping[Node, Iterable[Node]]) -> None:
        working: Dict[Node, set] = {}
        for node, neighbours in adjacency.items():
            working.setdefault(node, set())
            for other in neighbours:
                if other == node:
                    raise GraphError(f"self-loop on node {node!r} is not allowed")
                working[node].add(other)
                working.setdefault(other, set()).add(node)
        self._adj: Dict[Node, FrozenSet[Node]] = {
            node: frozenset(nbrs) for node, nbrs in working.items()
        }
        self._nodes: Tuple[Node, ...] = tuple(self._sorted_nodes(self._adj))
        self._num_edges: int = sum(len(nbrs) for nbrs in self._adj.values()) // 2
        self._hash: int | None = None
        self._digest: str | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _sorted_nodes(adj: Mapping[Node, FrozenSet[Node]]) -> List[Node]:
        return sort_nodes(adj)

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Node, Node]],
        isolated: Iterable[Node] = (),
    ) -> "Graph":
        """Build a graph from an iterable of edges plus optional isolated nodes.

        >>> g = Graph.from_edges([(0, 1), (1, 2)])
        >>> sorted(g.neighbors(1))
        [0, 2]
        """
        adjacency: Dict[Node, List[Node]] = {node: [] for node in isolated}
        for u, v in edges:
            adjacency.setdefault(u, []).append(v)
            adjacency.setdefault(v, [])
        return cls(adjacency)

    @classmethod
    def from_networkx(cls, nx_graph: object) -> "Graph":
        """Convert a ``networkx.Graph`` into a :class:`Graph`.

        Requires ``networkx`` to be importable; raises :class:`GraphError`
        when given a directed or multi graph.
        """
        nodes = list(nx_graph.nodes())  # type: ignore[attr-defined]
        if getattr(nx_graph, "is_directed", lambda: False)():
            raise GraphError("expected an undirected networkx graph")
        edges = [(u, v) for u, v in nx_graph.edges() if u != v]  # type: ignore[attr-defined]
        return cls.from_edges(edges, isolated=nodes)

    def to_networkx(self) -> object:
        """Convert to a ``networkx.Graph`` (imports networkx lazily)."""
        import networkx as nx

        out = nx.Graph()
        out.add_nodes_from(self._nodes)
        out.add_edges_from(self.edges())
        return out

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of nodes, ``n``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges, ``m``."""
        return self._num_edges

    def nodes(self) -> Tuple[Node, ...]:
        """All nodes in deterministic (sorted) order."""
        return self._nodes

    def edges(self) -> List[Edge]:
        """All undirected edges, each reported once, in deterministic order."""
        position = {node: index for index, node in enumerate(self._nodes)}
        result: List[Edge] = []
        for node in self._nodes:
            rank = position[node]
            for other in sort_nodes(self._adj[node]):
                if position[other] > rank:
                    result.append(_normalise_edge(node, other))
        return result

    def neighbors(self, node: Node) -> FrozenSet[Node]:
        """The neighbour set of ``node``.

        Raises :class:`NodeNotFoundError` for unknown nodes.
        """
        try:
            return self._adj[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def degree(self, node: Node) -> int:
        """Degree of ``node``."""
        return len(self.neighbors(node))

    def has_node(self, node: Node) -> bool:
        """Whether ``node`` is in the graph."""
        return node in self._adj

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether the undirected edge ``{u, v}`` is in the graph."""
        return u in self._adj and v in self._adj[u]

    def adjacency(self) -> Dict[Node, FrozenSet[Node]]:
        """A shallow copy of the adjacency map (neighbour sets are frozen)."""
        return dict(self._adj)

    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._adj)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def subgraph(self, keep: Iterable[Node]) -> "Graph":
        """The induced subgraph on ``keep`` (unknown nodes are an error)."""
        keep_set = set(keep)
        for node in keep_set:
            if node not in self._adj:
                raise NodeNotFoundError(node)
        return Graph(
            {node: [n for n in self._adj[node] if n in keep_set] for node in keep_set}
        )

    def relabel(self, mapping: Mapping[Node, Node]) -> "Graph":
        """A copy with nodes renamed through ``mapping``.

        Nodes absent from ``mapping`` keep their labels.  The mapping must
        be injective on the node set; collisions raise :class:`GraphError`.
        """
        new_names = {node: mapping.get(node, node) for node in self._nodes}
        if len(set(new_names.values())) != len(new_names):
            raise GraphError("relabel mapping is not injective on the node set")
        return Graph(
            {
                new_names[node]: [new_names[n] for n in self._adj[node]]
                for node in self._nodes
            }
        )

    def with_edge(self, u: Node, v: Node) -> "Graph":
        """A copy with the edge ``{u, v}`` added (nodes created if needed)."""
        adjacency = {node: list(nbrs) for node, nbrs in self._adj.items()}
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, [])
        return Graph(adjacency)

    def without_edge(self, u: Node, v: Node) -> "Graph":
        """A copy with the edge ``{u, v}`` removed (nodes retained)."""
        if not self.has_edge(u, v):
            from repro.errors import EdgeNotFoundError

            raise EdgeNotFoundError(u, v)
        adjacency = {
            node: [n for n in nbrs if not ({node, n} == {u, v})]
            for node, nbrs in self._adj.items()
        }
        return Graph(adjacency)

    def disjoint_union(self, other: "Graph") -> "Graph":
        """Disjoint union; nodes are tagged ``(0, node)`` / ``(1, node)``."""
        adjacency: Dict[Node, List[Node]] = {}
        for tag, graph in ((0, self), (1, other)):
            for node in graph.nodes():
                adjacency[(tag, node)] = [(tag, n) for n in graph.neighbors(node)]
        return Graph(adjacency)

    # ------------------------------------------------------------------
    # Equality / hashing / repr
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset((n, nbrs) for n, nbrs in self._adj.items()))
        return self._hash

    def content_digest(self) -> str:
        """A process-independent SHA-256 of the labelled structure.

        Unlike ``hash()`` (salted per interpreter for string labels),
        the digest is a pure function of the node and edge lists
        rendered through their ``repr``, so two processes building the
        same graph agree on it.  It is the graph half of
        :meth:`repro.api.spec.FloodSpec.digest` -- the key the
        content-addressed result cache (:mod:`repro.cache`) is built
        on -- and is memoised because under cached traffic it is
        recomputed per request; the memo is stripped from pickles with
        the hash below.
        """
        if self._digest is None:
            hasher = hashlib.sha256()
            for node in self._nodes:
                hasher.update(repr(node).encode("utf-8"))
                hasher.update(b";")
            hasher.update(b"|")
            for u, v in self.edges():
                hasher.update(f"{u!r}-{v!r}".encode("utf-8"))
                hasher.update(b";")
            self._digest = hasher.hexdigest()
        return self._digest

    # Pickling: drop the memoised hash and content digest.  Python
    # salts string hashing per process, so a cached hash computed here
    # is wrong in a worker that unpickles the graph (and carrying
    # either memo would also make the pickled payload depend on whether
    # the graph was ever used as a dict key or cache key).  Both slots
    # rebuild lazily on first use.

    def __getstate__(self) -> Tuple[Dict[Node, FrozenSet[Node]], Tuple[Node, ...], int]:
        return (self._adj, self._nodes, self._num_edges)

    def __setstate__(self, state) -> None:
        self._adj, self._nodes, self._num_edges = state
        self._hash = None
        self._digest = None

    def __repr__(self) -> str:
        return f"Graph(n={self.num_nodes}, m={self.num_edges})"

    def describe(self) -> str:
        """A short human-readable description used by reports."""
        return f"graph with {self.num_nodes} nodes and {self.num_edges} edges"


def degree_sequence(graph: Graph) -> List[int]:
    """The sorted (descending) degree sequence of ``graph``."""
    return sorted((graph.degree(node) for node in graph.nodes()), reverse=True)


def is_regular(graph: Graph) -> bool:
    """Whether every node has the same degree (vacuously true when empty)."""
    degrees = {graph.degree(node) for node in graph.nodes()}
    return len(degrees) <= 1


def edge_list_string(graph: Graph) -> str:
    """Render the edge list as one ``u -- v`` pair per line."""
    return "\n".join(f"{u} -- {v}" for u, v in graph.edges())
