"""``FloodSession`` keeps a bounded set of warm pools.

One pool per distinct graph, kept warm for reuse, would grow without
bound over a long session: every graph swept leaves worker processes
behind.  The session keeps at most ``DEFAULT_MAX_GRAPHS`` pools, least
recently used first out, and closes each pool it evicts.
"""

import multiprocessing

from repro.api import FloodSession, FloodSpec
from repro.fastpath import sweep_specs
from repro.graphs import cycle_graph
from repro.service.service import DEFAULT_MAX_GRAPHS


def pooled_batch(graph):
    return [FloodSpec(graph=graph, sources=(v,)) for v in graph.nodes()[:2]]


def test_pools_are_bounded_and_closed():
    before = set(multiprocessing.active_children())
    graphs = [cycle_graph(5 + 2 * i) for i in range(10)]
    session = FloodSession(workers=1)
    try:
        for graph in graphs:
            specs = pooled_batch(graph)
            results = session.sweep(specs)
            assert [result.raw for result in results] == sweep_specs(specs)
            assert len(session._pools) <= DEFAULT_MAX_GRAPHS
            live = set(multiprocessing.active_children()) - before
            assert len(live) <= DEFAULT_MAX_GRAPHS
        assert list(session._pools) == graphs[-DEFAULT_MAX_GRAPHS:]
    finally:
        session.close()
    assert set(multiprocessing.active_children()) - before == set()


def test_reuse_refreshes_a_pool():
    graphs = [cycle_graph(5 + 2 * i) for i in range(DEFAULT_MAX_GRAPHS + 1)]
    with FloodSession(workers=1) as session:
        for graph in graphs[:DEFAULT_MAX_GRAPHS]:
            session.sweep(pooled_batch(graph))
        first = session._pools[graphs[0]]
        session.sweep(pooled_batch(graphs[0]))  # now most recently used
        session.sweep(pooled_batch(graphs[-1]))  # evicts graphs[1]
        assert session._pools[graphs[0]] is first
        assert graphs[1] not in session._pools
        assert len(session._pools) == DEFAULT_MAX_GRAPHS
