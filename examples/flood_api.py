#!/usr/bin/env python3
"""The declarative API: one FloodSpec, every execution tier.

Builds :class:`~repro.api.spec.FloodSpec` requests and runs them
through a :class:`~repro.api.session.FloodSession` -- serially, as a
grouped batch sweep, through the string scenario registry, and
asynchronously via the coalescing flood service -- showing that every
tier answers with the same :class:`~repro.api.result.FloodResult`
shape and (where the process is deterministic) the same statistics.

Run:  python examples/flood_api.py
"""

import asyncio

from repro.api import FloodSession, FloodSpec
from repro.core import oracle_round
from repro.graphs import cycle_graph, erdos_renyi


def banner(title: str) -> None:
    print()
    print("=" * 64)
    print(f"= {title}")
    print("=" * 64)


def main() -> None:
    print("repro.api -- the declarative request facade")

    graph = erdos_renyi(400, 8 / 400, seed=11, connected=True)
    cycle = cycle_graph(101)

    banner("One spec, one run")
    spec = FloodSpec(graph=graph, sources=(graph.nodes()[0],))
    with FloodSession() as session:
        result = session.run(spec)
        print(f"spec:    {spec}")
        print(f"result:  {result}")
        print(f"digest:  {spec.digest()[:16]}... (stable across processes)")

        banner("A grouped sweep (heterogeneous specs, one call)")
        specs = (
            # A batch over the ER graph: grouped, resolved, maybe pooled.
            [spec.replace(sources=(v,)) for v in graph.nodes()[:24]]
            # A long odd-cycle flood: resolved by the same rule -- the
            # pure engine's total work is O(n + m + rounds) here.
            + [FloodSpec(graph=cycle, sources=(0,))]
        )
        results = session.sweep(specs)
        rounds = sorted({r.termination_round for r in results[:24]})
        print(f"{len(results)} results, ER termination rounds {rounds}")
        auto = results[-1]
        # The double-cover oracle predicts the same round without flooding.
        print(
            f"odd-cycle run on backend={auto.backend!r} "
            f"({auto.termination_round} rounds); the oracle predicts "
            f"{oracle_round(cycle, [0])} rounds from one cover BFS"
        )

        banner("Scenarios by name")
        for name in ("lossy:0.1", "kmemory:2", "periodic:3,4"):
            scenario_spec = FloodSpec.from_scenario(
                name, cycle, [0], seed=7, max_rounds=500
            )
            outcome = session.run(scenario_spec)
            print(f"{name:<14} -> {outcome}")

    async def serve() -> None:
        banner("Async queries (coalesced micro-batches)")
        async with FloodSession() as session:
            queries = [
                session.aquery(FloodSpec(graph=graph, sources=(v,)))
                for v in graph.nodes()[:8]
            ]
            answers = await asyncio.gather(*queries)
            print(
                f"8 concurrent aquery() calls -> rounds "
                f"{[a.termination_round for a in answers]}"
            )

    asyncio.run(serve())
    print()
    print("Every tier consumed the same FloodSpec type -- see")
    print("docs/architecture.md for the request pipeline.")


if __name__ == "__main__":
    main()
