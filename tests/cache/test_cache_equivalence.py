"""Cached, coalesced and persisted results are bit-identical to fresh runs.

The acceptance bar of the cache tier, extending the engine equivalence
matrix one layer up: across backend x variant x budget x collection
flags, a result served from the memory tier, decoded by a coalesced
joiner, or rehydrated from a cold persistent store must equal fresh
execution field by field -- and a cache-aware sweep over a mixed
hit/miss batch must reproduce the uncached sweep in input order.  The
backend axis comes from ``available_backends()``, so a newly registered
backend joins the matrix by construction.
"""

import asyncio

import pytest

from repro.api import FloodSession, FloodSpec, ResultCache
from repro.cache import DirectoryStore
from repro.fastpath import available_backends, thinning
from repro.graphs import complete_graph, cycle_graph, paper_triangle

BACKENDS = [None, *available_backends()]


def sources_of(result):
    """Session tiers answer in FloodResult (spec attached); the service
    answers in IndexedRun (resolved sources attached)."""
    if hasattr(result, "sources"):
        return result.sources
    return result.spec.sources


def runs_equal(a, b) -> bool:
    """Field-by-field equality of the run payloads behind two results."""
    return (
        a.terminated == b.terminated
        and a.termination_round == b.termination_round
        and a.total_messages == b.total_messages
        and a.round_edge_counts == b.round_edge_counts
        and a.backend == b.backend
        and sources_of(a) == sources_of(b)
    )


def collected_equal(a, b) -> bool:
    return (
        a.sender_sets() == b.sender_sets()
        and a.receive_rounds() == b.receive_rounds()
    )


class TestRunMatrix:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("budget", [None, 3])
    def test_cached_run_equals_fresh_run(self, backend, budget):
        spec = FloodSpec(
            graph=cycle_graph(19),
            sources=(0, 7),
            backend=backend,
            max_rounds=budget,
            collect_senders=True,
            collect_receives=True,
        )
        with FloodSession(workers=0) as plain:
            fresh = plain.run(spec)
        with FloodSession(workers=0, cache=ResultCache()) as cached:
            first = cached.run(spec)  # miss: executes and stores
            second = cached.run(spec)  # hit: decoded from the blob
            assert cached.cache_stats().hits == 1
        for result in (first, second):
            assert runs_equal(result, fresh)
            assert collected_equal(result, fresh)

    @pytest.mark.parametrize("stream", [0, 3])
    def test_cached_variant_run_equals_fresh_per_seed_and_stream(
        self, stream
    ):
        spec = FloodSpec(
            graph=cycle_graph(19),
            sources=(0,),
            variant=thinning(0.7, seed=11),
            stream=stream,
        )
        with FloodSession(workers=0) as plain:
            fresh = plain.run(spec)
        with FloodSession(workers=0, cache=ResultCache()) as cached:
            cached.run(spec)
            hit = cached.run(spec)
            assert cached.cache_stats().hits == 1
        assert runs_equal(hit, fresh)
        assert hit.reached_count == fresh.reached_count

    def test_streams_never_share_an_entry(self):
        variant = thinning(0.5, seed=11)
        base = FloodSpec(
            graph=cycle_graph(19), sources=(0,), variant=variant
        )
        cache = ResultCache()
        with FloodSession(workers=0, cache=cache) as session:
            session.run(base)
            session.run(base.replace(stream=1))
            stats = session.cache_stats()
        assert stats.stores == 2  # two entries, never a cross-stream hit
        assert stats.hits == 0

    def test_string_labelled_graph_round_trips(self):
        spec = FloodSpec(
            graph=paper_triangle(),
            sources=("b",),
            collect_senders=True,
            collect_receives=True,
        )
        with FloodSession(workers=0) as plain:
            fresh = plain.run(spec)
        with FloodSession(workers=0, cache=ResultCache()) as cached:
            cached.run(spec)
            hit = cached.run(spec)
        assert runs_equal(hit, fresh)
        assert collected_equal(hit, fresh)


class TestSweepMixedHitMiss:
    def test_cache_aware_sweep_is_bit_identical_in_input_order(self):
        graph = cycle_graph(33)
        specs = [FloodSpec(graph=graph, sources=(v,)) for v in range(12)]
        cache = ResultCache()
        with FloodSession(workers=0, cache=cache) as session:
            # Warm exactly the even positions...
            session.sweep([specs[v] for v in range(0, 12, 2)])
            # ...then sweep the full batch: 6 hits, 6 misses, mixed.
            mixed = session.sweep(specs)
            assert session.cache_stats().hits == 6
        with FloodSession(workers=0) as plain:
            reference = plain.sweep(specs)
        assert len(mixed) == len(reference)
        for ours, theirs in zip(mixed, reference):
            assert runs_equal(ours, theirs)

    def test_sweep_with_duplicates_matches_uncached(self):
        graph = cycle_graph(33)
        specs = [
            FloodSpec(graph=graph, sources=(v,)) for v in (0, 4, 0, 8, 4, 0)
        ]
        with FloodSession(workers=0, cache=ResultCache()) as session:
            ours = session.sweep(specs)
        with FloodSession(workers=0) as plain:
            theirs = plain.sweep(specs)
        for a, b in zip(ours, theirs):
            assert runs_equal(a, b)

    def test_sweep_heterogeneous_groups_with_cache(self):
        cy, kn = cycle_graph(21), complete_graph(9)
        specs = [
            FloodSpec(graph=cy, sources=(0,)),
            FloodSpec(graph=kn, sources=(1,)),
            FloodSpec(graph=cy, sources=(0,), backend="pure"),
            FloodSpec(graph=cy, sources=(0,)),  # duplicate of position 0
        ]
        with FloodSession(workers=0, cache=ResultCache()) as session:
            ours = session.sweep(specs)
        with FloodSession(workers=0) as plain:
            theirs = plain.sweep(specs)
        for a, b in zip(ours, theirs):
            assert runs_equal(a, b)

    def test_bypass_specs_in_a_sweep_never_touch_the_cache(self):
        graph = cycle_graph(21)
        specs = [
            FloodSpec(graph=graph, sources=(v,), cache="bypass")
            for v in range(4)
        ]
        cache = ResultCache()
        with FloodSession(workers=0, cache=cache) as session:
            ours = session.sweep(specs)
            assert cache.stats().stores == 0
            assert cache.stats().lookups == 0
        with FloodSession(workers=0) as plain:
            theirs = plain.sweep(specs)
        for a, b in zip(ours, theirs):
            assert runs_equal(a, b)


class TestServiceEquivalence:
    def test_cached_service_batch_equals_uncached(self):
        graph = cycle_graph(33)
        specs = [
            FloodSpec(graph=graph, sources=(v % 5,)) for v in range(15)
        ]

        async def serve(cache):
            from repro.service import FloodService

            async with FloodService(workers=0, cache=cache) as service:
                first = await service.query_batch_specs(specs)
                second = await service.query_batch_specs(specs)
                return first, second

        cached_first, cached_second = asyncio.run(serve(ResultCache()))
        plain_first, _ = asyncio.run(serve(None))
        for ours, theirs in zip(cached_first, plain_first):
            assert runs_equal(ours, theirs)
        for ours, theirs in zip(cached_second, plain_first):
            assert runs_equal(ours, theirs)

    def test_session_aquery_shares_the_session_cache(self):
        spec = FloodSpec(graph=cycle_graph(21), sources=(0,))
        cache = ResultCache()

        async def main():
            async with FloodSession(workers=0, cache=cache) as session:
                warmed = session.run(spec)  # sync miss, stores
                # Both tiers resolve backend=None by the one rule, so
                # the async query reads the entry the sync run stored.
                return warmed, await session.aquery(spec)

        warmed, async_result = asyncio.run(main())
        assert runs_equal(async_result, warmed)

    def test_pinned_backend_shares_entries_across_run_and_aquery(self):
        spec = FloodSpec(
            graph=cycle_graph(21), sources=(0,), backend="pure"
        )
        cache = ResultCache()

        async def main():
            async with FloodSession(workers=0, cache=cache) as session:
                session.run(spec)
                await session.aquery(spec)
                return cache.stats()

        stats = asyncio.run(main())
        assert stats.stores == 1  # one entry, served to both tiers
        assert stats.hits == 1


class TestPersistedEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_cold_store_rehydration_is_bit_identical(self, tmp_path, backend):
        spec = FloodSpec(
            graph=cycle_graph(19),
            sources=(2,),
            backend=backend,
            collect_senders=True,
            collect_receives=True,
        )
        with FloodSession(workers=0) as plain:
            fresh = plain.run(spec)
        store = DirectoryStore(tmp_path)
        with FloodSession(
            workers=0, cache=ResultCache(store=store)
        ) as warm:
            warm.run(spec)
        # A brand-new process-shaped cache: memory empty, store warm.
        cold_cache = ResultCache(store=store)
        with FloodSession(workers=0, cache=cold_cache) as cold:
            rehydrated = cold.run(spec)
        assert cold_cache.stats().store_hits == 1
        assert runs_equal(rehydrated, fresh)
        assert collected_equal(rehydrated, fresh)

    def test_store_round_trip_across_subprocess_boundary(self, tmp_path):
        """The directory is the cross-process tier: write here, read in a
        child with a different hash salt, byte-identical result fields."""
        import json
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[2] / "src")
        spec = FloodSpec(graph=paper_triangle(), sources=("b",))
        with FloodSession(
            workers=0, cache=ResultCache(store=DirectoryStore(tmp_path))
        ) as session:
            fresh = session.run(spec)
        code = (
            "import json\n"
            "from repro.api import FloodSession, FloodSpec, ResultCache\n"
            "from repro.cache import DirectoryStore\n"
            "from repro.graphs import paper_triangle\n"
            f"store = DirectoryStore({str(tmp_path)!r})\n"
            "cache = ResultCache(store=store)\n"
            "spec = FloodSpec(graph=paper_triangle(), sources=('b',))\n"
            "with FloodSession(workers=0, cache=cache) as session:\n"
            "    result = session.run(spec)\n"
            "assert cache.stats().store_hits == 1, cache.stats()\n"
            "print(json.dumps([result.termination_round,\n"
            "                  result.total_messages,\n"
            "                  result.round_edge_counts]))"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": src,
                "PATH": "/usr/bin:/bin",
                "PYTHONHASHSEED": "12345",
            },
        )
        assert completed.returncode == 0, completed.stderr
        rounds, messages, counts = json.loads(completed.stdout)
        assert rounds == fresh.termination_round
        assert messages == fresh.total_messages
        assert counts == fresh.round_edge_counts
