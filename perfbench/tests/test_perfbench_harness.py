"""Self-tests of the benchmark harness.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from repro.api import FloodSession, FloodSpec, ResultCache  # noqa: E402
from repro.fastpath import engine  # noqa: E402
from repro.graphs import cycle_graph, erdos_renyi  # noqa: E402
from repro.parallel import pool  # noqa: E402
from repro.service import FloodService  # noqa: E402
from repro.service import service as service_module  # noqa: E402


def test_schedule_comes_from_the_seed_alone():
    first = harness.poisson_schedule(7, 500.0, 200)
    assert first == harness.poisson_schedule(7, 500.0, 200)
    assert first != harness.poisson_schedule(8, 500.0, 200)
    assert all(b > a for a, b in zip(first, first[1:]))


def test_workload_inputs_come_from_the_seed_alone():
    for cls in (workloads.ServeTrickle, workloads.ServeZipf):
        assert cls(3).requests(500) == cls(3).requests(500)
        assert cls(3).requests(500) != cls(4).requests(500)
    graphs = workloads.SweepLong(3).graphs(0)
    assert graphs == workloads.SweepLong(3).graphs(0)
    assert graphs != workloads.SweepLong(3).graphs(1)
    unit = workloads.SweepLong(3).unit(graphs)
    assert [call[2] for call in unit] == [
        call[2] for call in workloads.SweepLong(3).unit(graphs)
    ]


def test_zipf_population_is_distinct_and_one_offs_never_repeat():
    workload = workloads.ServeZipf(5)
    population = workload.population()
    assert len(population) == len(set(population)) == workload.HOT_SPECS
    requests = workload.requests(5000)
    one_offs = [r for r in requests if r not in set(population)]
    assert len(one_offs) == len(set(one_offs))
    assert 0.15 < len(one_offs) / len(requests) < 0.25


def test_percentiles_report_their_sample_count():
    assert harness.percentile([3.0, 1.0, 2.0, 4.0, 5.0], 50) == (3.0, 5)
    value, count = harness.percentile(list(range(101)), 90)
    assert (value, count) == (90.0, 101)
    value, count = harness.percentile([1.0, 2.0], 50)
    assert (value, count) == (1.5, 2)
    value, count = harness.percentile([], 50)
    assert math.isnan(value) and count == 0


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()

    def inner():
        return 1

    def outer():
        return wrapped_inner() + 1

    wrapped_inner = tracer.wrap(inner, "inner")
    wrapped_outer = tracer.wrap(outer, "outer")
    assert wrapped_outer() == 2
    (outer_span,) = tracer.by_name("outer")
    (inner_span,) = tracer.by_name("inner")
    assert inner_span[4] == outer_span[0]
    own = tracer.self_times()
    outer_duration = outer_span[3] - outer_span[2]
    inner_duration = inner_span[3] - inner_span[2]
    assert math.isclose(own[outer_span[0]], outer_duration - inner_duration)


def test_same_layer_nesting_is_timed_once():
    tracer = tracing.Tracer()
    calls = []

    def leaf():
        calls.append(1)

    wrapped_leaf = tracer.wrap(leaf, "layer")
    wrapped_root = tracer.wrap(lambda: wrapped_leaf(), "layer")
    wrapped_root()
    assert calls == [1]
    assert len(tracer.by_name("layer")) == 1


def _sweep_and_serve():
    """A small pooled sweep, a serial sweep and cached service queries."""
    graph = erdos_renyi(60, 0.1, seed=4, connected=True)
    ring = cycle_graph(301)
    with FloodSession(workers=2) as session:
        pooled = session.sweep(
            FloodSpec(graph=ring, sources=(v,)) for v in range(40)
        )
    with FloodSession(workers=0) as session:
        serial = session.sweep(
            FloodSpec(graph=graph, sources=(v,)) for v in range(20)
        )

    async def serve():
        async with FloodService(workers=0, cache=ResultCache()) as service:
            specs = [FloodSpec(graph=graph, sources=(v % 7,)) for v in range(30)]
            specs.append(FloodSpec.from_scenario("kmemory:2", ring, (3,)))
            return await asyncio.gather(*(service.query_spec(s) for s in specs))

    served = asyncio.run(serve())
    return [
        workloads.signature_of(value) for value in pooled + serial + served
    ]


def test_wrappers_restore_bindings_and_keep_results_bit_identical():
    originals = {
        "engine.select_backend": engine.select_backend,
        "pool.serial_batch_ids": pool.serial_batch_ids,
        "service.serial_batch_ids": service_module.serial_batch_ids,
        "service.result_cache_key": service_module.result_cache_key,
        "FloodSession.sweep": FloodSession.__dict__["sweep"],
        "FloodSpec.__init__": FloodSpec.__dict__["__init__"],
    }
    plain = _sweep_and_serve()
    with tracing.traced() as (tracer, counts):
        assert service_module.serial_batch_ids is not originals["service.serial_batch_ids"]
        traced = _sweep_and_serve()
    assert traced == plain
    assert tracer.leftover_sites() == []
    assert engine.select_backend is originals["engine.select_backend"]
    assert pool.serial_batch_ids is originals["pool.serial_batch_ids"]
    assert service_module.serial_batch_ids is originals["service.serial_batch_ids"]
    assert service_module.result_cache_key is originals["service.result_cache_key"]
    assert FloodSession.__dict__["sweep"] is originals["FloodSession.sweep"]
    assert FloodSpec.__dict__["__init__"] is originals["FloodSpec.__init__"]
    names = {span[1] for span in tracer.spans}
    assert {
        "parallel.batch", "parallel.pool_start", "fastpath.exec",
        "service.query", "service.add", "cache.get", "cache.put",
        "api.spec_build", "api.sweep",
    } <= names
    # Every plain run executed once is counted once: 40 pooled + 20
    # serial + 7 distinct cached service queries + 1 variant query.
    assert sum(counts.runs.values()) == 40 + 20 + 7 + 1
