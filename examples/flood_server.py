"""Serve flood queries: the async service layer end to end.

A miniature serving scenario on one machine: a :class:`FloodService`
owns warm sweep workers, three very different topologies are
registered, and a burst of concurrent callers issues single-source
queries -- exactly the shape a termination-statistics API endpoint
would see.  The demo prints what the service did about it:

* **coalescing** -- concurrent requests on the same topology ride one
  sharded pool batch (watch ``mean batch size``);
* **backend resolution** -- one rule for every request: none of these
  graphs reaches the numpy engine's size thresholds, so every query,
  the long odd cycle's included, runs on the pure engine, whose total
  work on a flood is O(n + m + rounds) (watch the backend mix);
* **backpressure** -- a deliberately tiny queue sheds load with a
  typed ``QueueFull`` instead of melting (watch the rejected count);
* **determinism** -- every served result is re-checked against the
  serial ``repro.fastpath.sweep`` of the same request.

Run it::

    python examples/flood_server.py
"""

from __future__ import annotations

import asyncio
import time

from repro.api import FloodSpec
from repro.fastpath import sweep
from repro.graphs import complete_graph, cycle_graph, erdos_renyi
from repro.service import FloodService, QueueFull


def build_topologies():
    """Three families with very different round scales."""
    return {
        "er-300 (sparse expander)": erdos_renyi(
            300, 8.0 / 300, seed=300, connected=True
        ),
        "cycle-201 (round-heavy)": cycle_graph(201),
        "k-20 (dense, 2 rounds)": complete_graph(20),
    }


async def serve_burst(service, graphs, per_graph=24):
    """Fire one concurrent burst of single-source queries per topology."""
    queries = []
    for graph in graphs.values():
        for source in graph.nodes()[:per_graph]:
            queries.append(
                service.query_spec(FloodSpec(graph=graph, sources=(source,)))
            )
    started = time.perf_counter()
    results = await asyncio.gather(*queries)
    elapsed = time.perf_counter() - started
    return results, elapsed


def check_determinism(graphs, results, per_graph):
    """Every served run must equal its serial sweep, field by field."""
    position = 0
    for graph in graphs.values():
        sets = [[v] for v in graph.nodes()[:per_graph]]
        served = results[position : position + len(sets)]
        serial = sweep(graph, sets, backend=served[0].backend)
        for expected, actual in zip(serial, served):
            assert expected.termination_round == actual.termination_round
            assert expected.total_messages == actual.total_messages
            assert expected.round_edge_counts == actual.round_edge_counts
        position += len(sets)


async def backpressure_demo(service, graph):
    """Overrun a tiny queue on purpose; count the typed rejections."""
    rejected = 0

    async def one(source):
        nonlocal rejected
        try:
            await service.query_spec(FloodSpec(graph=graph, sources=(source,)))
        except QueueFull:
            rejected += 1

    await asyncio.gather(*(one(v) for v in graph.nodes()[:32]))
    return rejected


async def main():
    per_graph = 24
    graphs = build_topologies()

    async with FloodService(batch_window=0.002) as service:
        print(f"service up: {service!r}")
        for name, graph in graphs.items():
            service.register(graph)
            print(f"  registered {name}: n={graph.num_nodes}, m={graph.num_edges}")

        results, elapsed = await serve_burst(service, graphs, per_graph)
        check_determinism(graphs, results, per_graph)

        stats = service.stats
        total = len(results)
        print(f"\nserved {total} concurrent queries in {elapsed:.3f}s "
              f"({total / elapsed:,.0f} queries/s), all bit-identical to "
              f"serial sweeps")
        print(f"  pool batches dispatched : {stats.batches} "
              f"(mean batch size {stats.mean_batch_size():.1f}, "
              f"largest {stats.largest_batch})")
        print(f"  backend mix             : {dict(stats.backends)}")
        by_family = {
            name: sweep(graph, [[graph.nodes()[0]]])[0].termination_round
            for name, graph in graphs.items()
        }
        print(f"  termination rounds seen : {by_family}")

    # A second, deliberately overloaded service: queue of 8, raise mode.
    dense = build_topologies()["er-300 (sparse expander)"]
    async with FloodService(
        workers=0, max_pending=8, batch_window=0.05, on_full="raise"
    ) as small:
        rejected = await backpressure_demo(small, dense)
        served = small.stats.queries
        print(f"\nbackpressure demo (queue=8): {served} served, "
              f"{rejected} shed with QueueFull -- the service degrades "
              f"by refusing, not by queueing unboundedly")


if __name__ == "__main__":
    asyncio.run(main())
