"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import functools
import threading
from typing import List, Tuple

import pytest
from hypothesis import strategies as st

from repro.api import FloodSpec
from repro.fastpath import IndexedGraph, oracle_backend
from repro.fastpath.engine import IndexedRun, wrap_raw_run
from repro.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    paper_even_cycle,
    paper_line,
    paper_triangle,
    path_graph,
)
from repro.graphs.random_graphs import random_connected_graph
from repro.service import FloodService
from repro.service import service as service_module


# ----------------------------------------------------------------------
# Plain fixtures: the paper's own instances
# ----------------------------------------------------------------------


@pytest.fixture
def line() -> Graph:
    """Figure 1's line a-b-c-d."""
    return paper_line()


@pytest.fixture
def triangle() -> Graph:
    """Figure 2 / Figure 5's triangle."""
    return paper_triangle()


@pytest.fixture
def even_cycle() -> Graph:
    """Figure 3's six-cycle."""
    return paper_even_cycle()


# ----------------------------------------------------------------------
# The double-cover reference: oracle_backend.run, called by name
# ----------------------------------------------------------------------


def cover_runs(
    graph: Graph,
    source_sets,
    max_rounds=None,
    collect_senders: bool = False,
    collect_receives: bool = False,
) -> List[IndexedRun]:
    """The double-cover prediction of every flood, labelled ``"cover"``.

    One :func:`repro.fastpath.oracle_backend.run` per source set over
    ``IndexedGraph.of(graph)``, with the canonical sources and resolved
    budget of the matching ``FloodSpec``.  The reference the engines,
    the pool, the session and the service are held equal to; the
    oracle itself is not a backend.
    """
    index = IndexedGraph.of(graph)
    runs = []
    for sources in source_sets:
        spec = FloodSpec(graph, tuple(sources), max_rounds)
        ids = index.resolve_sources(spec.sources)
        raw = oracle_backend.run(
            index, ids, spec.max_rounds, collect_senders, collect_receives
        )
        runs.append(wrap_raw_run(index, ids, "cover", raw))
    return runs


# ----------------------------------------------------------------------
# FloodService fixtures: post-close settlement and a held execution lane
# ----------------------------------------------------------------------

HOLD_LIMIT_S = 10.0
"""A held batch releases itself after this long (a failed test never hangs)."""


def assert_settled(service: FloodService) -> None:
    """A closed service holds no slot, bucket, timer, future or batch."""
    batcher = service._batcher
    assert service._gate.used == 0, f"{service._gate.used} admission slots held"
    assert batcher.pending == 0, f"{batcher.pending} requests still bucketed"
    assert not batcher._timers, "a flush timer outlived its bucket"
    assert not service._inflight_results, "in-flight result futures left"
    assert batcher._in_flight == 0, f"{batcher._in_flight} batches in flight"


@pytest.fixture(autouse=True)
def service_invariants(monkeypatch):
    """Check :func:`assert_settled` on every ``FloodService`` the test closed.

    Each closed service must have given everything back: admission
    slots, bucketed requests and their flush timers, in-flight result
    futures, and the batcher's count of dispatched batches.
    """
    built = []
    original_init = FloodService.__init__

    @functools.wraps(original_init)
    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(FloodService, "__init__", recording_init)
    yield
    for service in built:
        if service._closed:
            assert_settled(service)


@pytest.fixture
def held_lane(monkeypatch):
    """Hold every serial-lane batch while the returned event is clear.

    Parks requests without a long batching window: a batch held in the
    lane keeps the service busy, so requests admitted behind it stay
    bucketed (or wait for admission).  ``set()`` releases the lane;
    ``clear()`` holds it again.
    """
    release = threading.Event()
    serial_batch_ids = service_module.serial_batch_ids

    def held(*args, **kwargs):
        release.wait(HOLD_LIMIT_S)
        return serial_batch_ids(*args, **kwargs)

    monkeypatch.setattr(service_module, "serial_batch_ids", held)
    yield release
    release.set()


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------


@st.composite
def connected_graphs(
    draw, min_nodes: int = 2, max_nodes: int = 16, max_extra_prob: float = 0.5
):
    """Random connected graphs: a random tree plus random extra edges.

    The construction guarantees connectivity, and the extra-edge
    probability is drawn too so samples range from trees (bipartite) to
    dense graphs (almost surely non-bipartite).
    """
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    extra = draw(st.floats(min_value=0.0, max_value=max_extra_prob))
    return random_connected_graph(n, extra_edge_prob=extra, seed=seed)


@st.composite
def connected_graph_with_source(draw, min_nodes: int = 2, max_nodes: int = 16):
    """A (graph, source) pair with the source chosen among the nodes."""
    graph = draw(connected_graphs(min_nodes=min_nodes, max_nodes=max_nodes))
    index = draw(st.integers(min_value=0, max_value=graph.num_nodes - 1))
    return graph, graph.nodes()[index]


@st.composite
def connected_graph_with_sources(
    draw, min_nodes: int = 2, max_nodes: int = 14, max_sources: int = 4
):
    """A (graph, source-list) pair with 1..max_sources distinct sources."""
    graph = draw(connected_graphs(min_nodes=min_nodes, max_nodes=max_nodes))
    nodes = list(graph.nodes())
    count = draw(st.integers(min_value=1, max_value=min(max_sources, len(nodes))))
    sources = draw(
        st.lists(
            st.sampled_from(nodes), min_size=count, max_size=count, unique=True
        )
    )
    return graph, sources


@st.composite
def trees(draw, min_nodes: int = 2, max_nodes: int = 16):
    """Random trees (always connected and bipartite)."""
    from repro.graphs.random_graphs import random_tree

    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return random_tree(n, seed=seed)


# Fixed deterministic suites for parametrised tests -------------------------


def small_connected_suite() -> List[Tuple[str, Graph]]:
    """A compact cross-section of structures for parametrised tests."""
    return [
        ("line", paper_line()),
        ("triangle", paper_triangle()),
        ("even-cycle", paper_even_cycle()),
        ("path-7", path_graph(7)),
        ("cycle-5", cycle_graph(5)),
        ("cycle-8", cycle_graph(8)),
        ("complete-5", complete_graph(5)),
        ("random-12", random_connected_graph(12, extra_edge_prob=0.25, seed=7)),
        ("random-tree-9", random_connected_graph(9, extra_edge_prob=0.0, seed=3)),
    ]
