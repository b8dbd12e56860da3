"""One spec, one cache entry, whichever tier stores or reads it.

Every tier resolves a spec's backend with the one rule
(``fastpath.engine.resolve_backend``), and the resolved name is part of
the cache key.  A ``backend=None`` spec therefore addresses the same
entry through ``FloodSession.run`` and ``FloodSession.sweep`` -- the
second call is a hit, not a second computation stored beside the first.
"""

import asyncio

from repro.api import FloodSession, FloodSpec, ResultCache
from repro.graphs import cycle_graph


def test_run_then_sweep_share_one_entry():
    spec = FloodSpec(cycle_graph(101), (0,))
    cache = ResultCache()
    with FloodSession(workers=0, cache=cache) as session:
        ran = session.run(spec)
        swept = session.sweep([spec])[0]
    assert ran.backend == swept.backend
    assert ran.termination_round == swept.termination_round == 101
    stats = cache.stats()
    assert len(cache) == stats.entries == 1
    assert stats.stores == 1
    assert stats.hits == 1 and stats.misses == 1


def test_sweep_then_aquery_then_run_share_one_entry():
    spec = FloodSpec(cycle_graph(101), (5,))
    cache = ResultCache()

    async def main():
        async with FloodSession(workers=0, cache=cache) as session:
            swept = session.sweep([spec])[0]
            queried = await session.aquery(spec)
            ran = session.run(spec)
            return swept, queried, ran

    results = asyncio.run(main())
    assert len({result.backend for result in results}) == 1
    stats = cache.stats()
    assert stats.entries == 1
    assert stats.stores == 1
    assert stats.hits == 2
