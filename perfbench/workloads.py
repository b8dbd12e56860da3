"""The four workloads and the passes that measure them.

Every input comes from the seed.  Each workload is fixed work: a sweep
workload repeats one fixed *unit* of calls, a serve workload plays one
fixed open-loop schedule.  See ``README.md`` for why each was chosen.
"""

from __future__ import annotations

import asyncio
import gc
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import harness
import tracing
from harness import rng_for

import repro.core
import repro.graphs
from repro.api import FloodSession, FloodSpec, ResultCache
from repro.fastpath.engine import raw_run_of
from repro.service import FloodService

SETUP_REPS = 5
"""Set-ups per run; ``setup_s`` is their median."""

MIN_UNITS = 2
"""Sweep units per run at least, so per-call percentiles never rest on one unit."""

CHECK_SAMPLE = 24
"""Results per run checked against the set-based reference engines."""

WINDOW_S = 1.0
"""Serve metrics are taken per window of this many seconds of the schedule."""

REQUEST_TIMEOUT_S = 5.0
"""Per-request timeout of the serve workloads: every request ends in bounded time."""

MEAN_DEGREE = 8

Request = Tuple[int, Tuple[int, ...], Optional[str]]
"""A serve request: (graph position, source nodes, scenario or None)."""


BASE_GRAPH_SEED = 20190707
"""Seed of the fixed random topologies; a run's seed relabels them."""


def relabelled(graph: Any, seed: int, rep: int) -> Any:
    """``graph`` with labels permuted by the seed and the set-up repetition.

    The topology, and so the work a flood does, is the same for every
    seed; the labels (and so the node order, the CSR layout and which
    nodes the seeded sources hit) are not.  A fresh labelling per
    set-up also makes every set-up index its graphs anew.
    """
    nodes = list(graph.nodes())
    labels = list(range(len(nodes)))
    rng_for(seed, "labels", len(nodes), rep).shuffle(labels)
    return graph.relabel(dict(zip(nodes, labels)))


def random_graph(seed: int, n: int, rep: int) -> Any:
    """A connected G(n, p) of mean degree 8 (fixed topology, seeded labels)."""
    base = repro.graphs.erdos_renyi(
        n, MEAN_DEGREE / (n - 1), seed=BASE_GRAPH_SEED + n, connected=True
    )
    return relabelled(base, seed, rep)


def odd_cycle(seed: int, n: int, rep: int) -> Any:
    return relabelled(repro.graphs.cycle_graph(n), seed, rep)


@dataclass
class Pass:
    """What one measured pass observed."""

    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    latencies: List[float] = field(default_factory=list)
    unit_rates: List[float] = field(default_factory=list)
    checks: List[Tuple[Any, Any]] = field(default_factory=list)
    signatures: List[Any] = field(default_factory=list)
    cpu_s: float = 0.0
    lags: List[float] = field(default_factory=list)
    scheduled: int = 0
    sent: int = 0
    completed: int = 0
    windows: List[List[float]] = field(default_factory=list)
    window_rates: List[float] = field(default_factory=list)
    service_stats: Any = None
    cache_stats: Any = None


# ----------------------------------------------------------------------
# Sweep workloads: a FloodSession with default settings, fixed units
# ----------------------------------------------------------------------


class SweepWorkload:
    """Repeats one unit of sweep (and all-pairs) calls on a warm session."""

    name = ""
    WARMUP_BATCH = 32  # the pool floor, so warm-up starts every pool
    OVERHEAD_BASIS = "runs_per_s of one unit, traced vs untraced pass"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def graphs(self, rep: int) -> List[Any]:
        raise NotImplementedError

    def unit(self, graphs: List[Any]) -> List[Tuple[str, Any, Any]]:
        """The unit's calls: ``("sweep", graph, sources)`` or ``("allpairs", graph, limit)``."""
        raise NotImplementedError

    def setup(self, rep: int) -> Tuple[List[Any], FloodSession]:
        graphs = self.graphs(rep)
        session = FloodSession()
        rng = rng_for(self.seed, "warmup", rep)
        for graph in graphs:
            nodes = graph.nodes()
            session.sweep(
                FloodSpec(graph=graph, sources=(rng.choice(nodes),))
                for _ in range(self.WARMUP_BATCH)
            )
        return graphs, session

    @staticmethod
    def call(session: FloodSession, kind: str, graph: Any, payload: Any) -> List[Tuple[Any, Any]]:
        if kind == "sweep":
            specs = [FloodSpec(graph=graph, sources=(node,)) for node in payload]
            return list(zip(specs, session.sweep(specs)))
        rows = repro.core.all_pairs_termination(graph, pair_limit=payload)
        return [
            (FloodSpec(graph=graph, sources=pair), rounds) for pair, rounds in rows
        ]

    def measure(
        self, session: FloodSession, calls: Sequence[Tuple[str, Any, Any]],
        seconds: float, record: bool,
    ) -> Pass:
        """Run units until ``seconds`` pass (at least ``MIN_UNITS``).

        Only the first unit's results are kept: all of them when
        ``record`` (the traced run runs that one unit and compares every
        result), else a seeded sample for the reference check, so that
        held results do not grow with the number of units and show in
        ``peak_rss_mb``.
        """
        result = Pass()
        gc.collect()
        deadline = time.perf_counter() + seconds
        while True:
            unit_start = time.perf_counter()
            runs = 0
            pairs: List[Tuple[Any, Any]] = []
            for kind, graph, payload in calls:
                size = len(payload) if kind == "sweep" else payload
                start = time.perf_counter()
                try:
                    pairs.extend(self.call(session, kind, graph, payload))
                except Exception as exc:  # counted as failed runs
                    result.failures[type(exc).__name__] += size
                result.latencies.append(time.perf_counter() - start)
                runs += size
            elapsed = time.perf_counter() - unit_start
            result.attempted += runs
            result.unit_rates.append(runs / elapsed)
            if len(result.unit_rates) == 1:
                result.checks = pairs if record else harness.sample(pairs, self.seed, CHECK_SAMPLE)
            del pairs
            if record or (
                len(result.unit_rates) >= MIN_UNITS
                and time.perf_counter() + elapsed > deadline
            ):
                break
        if record:
            result.signatures = [signature_of(value) for _, value in result.checks]
        return result

    def run_pass(self, rep: int, seconds: float, record: bool) -> Pass:
        graphs, session = self.setup(rep)
        with session:
            return self.measure(session, self.unit(graphs), seconds, record)

    def timed_setups(self, reps: int) -> List[float]:
        times = []
        for rep in range(reps):
            start = time.perf_counter()
            _, session = self.setup(rep)
            times.append(time.perf_counter() - start)
            session.close()
        return times

    @staticmethod
    def summary(measured: Pass) -> Tuple[float, float, float, Dict[str, Any]]:
        """``(runs_per_s, p50 s, p90 s, context)`` of an untraced pass."""
        context = {
            "units": len(measured.unit_rates),
            "unit_runs_per_s": [round(value, 2) for value in measured.unit_rates],
            "call_latencies_ms": [round(value * 1e3, 2) for value in measured.latencies],
            "latency_basis": "per sweep or all-pairs call, over all units",
            "runs_per_s_basis": "flood runs per wall second, median over units",
        }
        return (
            harness.median(measured.unit_rates),
            harness.percentile(measured.latencies, 50)[0],
            harness.percentile(measured.latencies, 90)[0],
            context,
        )

    @staticmethod
    def trace_summary(traced: Pass, plain: Pass) -> Dict[str, float]:
        """Tracing overhead from one unit each; sweeps have no serve tails."""
        return {
            "trace.overhead_pct": (plain.unit_rates[0] / traced.unit_rates[0] - 1.0) * 100.0,
            "service.loop_lag_p99_ms": 0.0,
            "service.latency_p99_ms": 0.0,
        }


class SweepLong(SweepWorkload):
    """Single-source sweeps over long odd cycles, batches either side of the bitset gate."""

    name = "sweep_long"
    CYCLES = (4095, 2047, 511)
    CALLS = ((0, 64), (1, 64), (2, 256))  # (cycle, batch size)

    def graphs(self, rep: int) -> List[Any]:
        return [odd_cycle(self.seed, n, rep) for n in self.CYCLES]

    def unit(self, graphs: List[Any]) -> List[Tuple[str, Any, Any]]:
        rng = rng_for(self.seed, "sources")
        return [
            ("sweep", graphs[which], [rng.randrange(self.CYCLES[which]) for _ in range(batch)])
            for which, batch in self.CALLS
        ]


class SweepDense(SweepWorkload):
    """512-source sweeps and capped all-pairs calls on a dense random graph."""

    name = "sweep_dense"
    NODES = 2000
    SWEEPS = 4
    BATCH = 512
    PAIR_LIMIT = 512

    def graphs(self, rep: int) -> List[Any]:
        return [random_graph(self.seed, self.NODES, rep)]

    def unit(self, graphs: List[Any]) -> List[Tuple[str, Any, Any]]:
        rng = rng_for(self.seed, "sources")
        graph = graphs[0]
        nodes = graph.nodes()
        calls: List[Tuple[str, Any, Any]] = [
            ("sweep", graph, [rng.choice(nodes) for _ in range(self.BATCH)])
            for _ in range(self.SWEEPS)
        ]
        calls.append(("allpairs", graph, self.PAIR_LIMIT))
        return calls


# ----------------------------------------------------------------------
# Serve workloads: an in-process FloodService under an open loop
# ----------------------------------------------------------------------


class ServeWorkload:
    """An open-loop Poisson schedule of single queries against one service."""

    name = ""
    RATE = 0.0
    WARMUP_PER_GRAPH = 50
    OVERHEAD_BASIS = "whole-schedule latency_p50_ms, traced vs untraced pass"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def graphs(self, rep: int) -> List[Any]:
        raise NotImplementedError

    def make_service(self) -> FloodService:
        raise NotImplementedError

    def requests(self, count: int) -> List[Request]:
        """``count`` request descriptors ``(graph, sources, scenario)``."""
        raise NotImplementedError

    def spec(self, graphs: List[Any], request: Request, **extra: Any) -> FloodSpec:
        which, sources, scenario = request
        if scenario is None:
            return FloodSpec(graph=graphs[which], sources=sources, **extra)
        name, _, seed = scenario.partition("@")
        spec = FloodSpec.from_scenario(name, graphs[which], sources, seed=int(seed or 0))
        return spec.replace(**extra) if extra else spec

    async def setup(self, rep: int) -> Tuple[List[Any], FloodService]:
        graphs = self.graphs(rep)
        service = self.make_service()
        for graph in graphs:
            service.register(graph)
        # Warm-up requests bypass the result cache, so the measured phase
        # starts with the cache empty and the engines' lazy state built.
        warmup = self.requests(self.WARMUP_PER_GRAPH * len(graphs) * 4)
        rng = rng_for(self.seed, "warmup", rep)
        for request in rng.sample(warmup, self.WARMUP_PER_GRAPH * len(graphs)):
            await service.query_spec(self.spec(graphs, request, cache="bypass"))
        return graphs, service

    def count(self, seconds: float) -> int:
        return max(1, round(self.RATE * seconds))

    async def measure(
        self, graphs: List[Any], service: FloodService, seconds: float, record: bool
    ) -> Pass:
        """Play the schedule; keep every result when ``record``, else a seeded sample."""
        result = Pass()
        count = self.count(seconds)
        offsets = harness.poisson_schedule(self.seed, self.RATE, count)
        requests = self.requests(count)
        keep = set(
            range(count) if record
            else harness.sample(range(count), self.seed, CHECK_SAMPLE)
        )
        results: List[Any] = [None] * count
        specs: List[Any] = [None] * count
        latencies: List[Optional[float]] = [None] * count
        completed = [0]

        async def one(position: int, due: float) -> None:
            tracing.REQUEST.set(position)
            try:
                spec = self.spec(graphs, requests[position])
                run = await service.query_spec(spec)
            except Exception as exc:  # QueueFull, QueryTimeout or any error: counted
                result.failures[type(exc).__name__] += 1
                return
            latencies[position] = time.perf_counter() - due
            completed[0] += 1
            if position in keep:
                specs[position] = spec
                results[position] = run

        gc.collect()
        loop = asyncio.get_running_loop()
        tasks = []
        marks = [(time.process_time(), 0)]  # (CPU seconds, completed) per window edge
        edge = WINDOW_S
        start = time.perf_counter() + 0.005
        for position, offset in enumerate(offsets):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if offset >= edge:
                marks.append((time.process_time(), completed[0]))
                edge += WINDOW_S
            result.lags.append(max(0.0, time.perf_counter() - due))
            tasks.append(loop.create_task(one(position, due)))
        await asyncio.gather(*tasks)
        result.cpu_s = time.process_time() - marks[0][0]
        result.window_rates = [
            (done_b - done_a) / (cpu_b - cpu_a)
            for (cpu_a, done_a), (cpu_b, done_b) in zip(marks, marks[1:])
            if cpu_b > cpu_a
        ]
        full = max(1, int(offsets[-1] // WINDOW_S))  # the last, partial window is dropped
        result.windows = [[] for _ in range(full)]
        for offset, latency in zip(offsets, latencies):
            if latency is not None and offset < full * WINDOW_S:
                result.windows[int(offset // WINDOW_S)].append(latency)
        result.scheduled = count
        result.sent = len(tasks)
        result.attempted = count
        result.latencies = [value for value in latencies if value is not None]
        result.completed = len(result.latencies)
        result.checks = [
            (spec, run) for spec, run in zip(specs, results) if run is not None
        ]
        if record:
            result.signatures = [signature_of(run) for run in results]
        result.service_stats = service.stats
        result.cache_stats = service.cache_stats()
        return result

    def run_pass(self, rep: int, seconds: float, record: bool) -> Pass:
        async def main() -> Pass:
            graphs, service = await self.setup(rep)
            async with service:
                return await self.measure(graphs, service, seconds, record)

        return asyncio.run(main())

    @staticmethod
    def summary(measured: Pass) -> Tuple[float, float, float, Dict[str, Any]]:
        """``(runs_per_s, p50 s, p90 s, context)`` of an untraced pass.

        The VM alternates between fast and slow phases lasting seconds,
        so latency is taken per 1 s window and the quietest window is
        reported: it is what repeats from run to run.
        """
        window_p50 = [harness.percentile(w, 50)[0] for w in measured.windows]
        window_p90 = [harness.percentile(w, 90)[0] for w in measured.windows]
        context = {
            "scheduled": measured.scheduled,
            "sent": measured.sent,
            "completed": measured.completed,
            "loop_lag_p99_ms": harness.percentile(measured.lags, 99)[0] * 1e3,
            "cpu_s": measured.cpu_s,
            "windows": len(measured.windows),
            "window_samples_min": min(len(w) for w in measured.windows),
            "window_p50_ms": [round(value * 1e3, 4) for value in window_p50],
            "window_p90_ms": [round(value * 1e3, 4) for value in window_p90],
            "window_runs_per_s": [round(value, 1) for value in measured.window_rates],
            "latency_basis": "lowest over 1 s schedule windows of each window's percentile",
            "runs_per_s_basis": "completed requests per CPU-second of the process, "
            "median over 1 s schedule windows",
        }
        return (
            harness.median(measured.window_rates),
            min(window_p50),
            min(window_p90),
            context,
        )

    @staticmethod
    def trace_summary(traced: Pass, plain: Pass) -> Dict[str, float]:
        """Tracing overhead on whole-schedule p50, and the untraced tails."""
        traced_p50 = harness.percentile(traced.latencies, 50)[0]
        plain_p50 = harness.percentile(plain.latencies, 50)[0]
        return {
            "trace.overhead_pct": (traced_p50 / plain_p50 - 1.0) * 100.0,
            "service.loop_lag_p99_ms": harness.percentile(plain.lags, 99)[0] * 1e3,
            "service.latency_p99_ms": harness.percentile(plain.latencies, 99)[0] * 1e3,
        }

    def timed_setups(self, reps: int) -> List[float]:
        async def main() -> List[float]:
            times = []
            for rep in range(reps):
                start = time.perf_counter()
                _, service = await self.setup(rep)
                times.append(time.perf_counter() - start)
                await service.close()
            return times

        return asyncio.run(main())


class ServeTrickle(ServeWorkload):
    """Lone plain queries at a low rate on two random graphs, no cache."""

    name = "serve_trickle"
    RATE = 250.0
    SIZES = (200, 1000)

    def graphs(self, rep: int) -> List[Any]:
        return [random_graph(self.seed, n, rep) for n in self.SIZES]

    def make_service(self) -> FloodService:
        return FloodService(workers=0, default_timeout=REQUEST_TIMEOUT_S)

    def requests(self, count: int) -> List[Request]:
        # Cycle through a seeded permutation of every single-source spec,
        # so repeats of one spec are a whole population apart.
        population: List[Request] = [
            (which, (source,), None)
            for which, n in enumerate(self.SIZES)
            for source in range(n)
        ]
        rng_for(self.seed, "requests").shuffle(population)
        return [population[i % len(population)] for i in range(count)]


class ServeZipf(ServeWorkload):
    """Zipf-popular plain and variant queries plus one-off misses, behind a result cache."""

    name = "serve_zipf"
    RATE = 1000.0
    HOT_SPECS = 600
    ZIPF = 1.1
    ONE_OFF_SHARE = 0.2
    CYCLE = 501
    SIZES = (200, 1000)
    CACHE_ENTRIES = 65536  # above hot + one-off specs: no evictions, so exact run counts repeat

    def graphs(self, rep: int) -> List[Any]:
        return [random_graph(self.seed, n, rep) for n in self.SIZES] + [
            odd_cycle(self.seed, self.CYCLE, rep)
        ]

    def make_service(self) -> FloodService:
        return FloodService(
            workers=0,
            default_timeout=REQUEST_TIMEOUT_S,
            cache=ResultCache(max_entries=self.CACHE_ENTRIES),
        )

    def population(self) -> List[Request]:
        """``HOT_SPECS`` distinct request descriptors, most popular first.

        Plain specs with one or two sources on all three graphs;
        single-source k-memory variants on the small random graph and
        the cycle; lossy variants on the cycle only (on the random
        graphs a lossy flood runs for hundreds of rounds per request,
        which would saturate the service).
        """
        rng = rng_for(self.seed, "population")
        kinds = (
            (0.25, 0, None), (0.25, 1, None), (0.15, 2, None),
            (0.10, 0, "kmemory:2"), (0.10, 2, "kmemory:2"),
            (0.15, 2, "lossy:0.2"),
        )
        sizes = self.SIZES + (self.CYCLE,)
        seen = set()
        population = []
        while len(population) < self.HOT_SPECS:
            draw = rng.random()
            for weight, which, scenario in kinds:
                if draw < weight:
                    break
                draw -= weight
            if scenario is None and rng.random() < 0.5:
                sources = tuple(rng.sample(range(sizes[which]), 2))
            else:
                sources = (rng.randrange(sizes[which]),)
            if scenario == "lossy:0.2":
                scenario = f"lossy:0.2@{rng.randrange(4)}"
            request = (which, sources, scenario)
            if request not in seen:
                seen.add(request)
                population.append(request)
        return population

    def requests(self, count: int) -> List[Request]:
        """Zipf draws from the hot population, and a share of one-off specs.

        The one-off specs (plain, two sources, on a random graph) are
        never requested twice, so they always miss: the miss share stays
        near ``ONE_OFF_SHARE`` for the whole schedule instead of falling
        as the hot set fills the cache.
        """
        hot = self.population()
        weights = [1.0 / (rank + 1) ** self.ZIPF for rank in range(len(hot))]
        rng = rng_for(self.seed, "requests")
        seen = set(hot)
        requests: List[Request] = []
        for _ in range(count):
            if rng.random() >= self.ONE_OFF_SHARE:
                requests.append(rng.choices(hot, weights=weights)[0])
                continue
            while True:
                which = rng.randrange(len(self.SIZES))
                request = (which, tuple(rng.sample(range(self.SIZES[which]), 2)), None)
                if request not in seen:
                    break
            seen.add(request)
            requests.append(request)
        return requests


WORKLOADS = {
    cls.name: cls for cls in (SweepLong, SweepDense, ServeTrickle, ServeZipf)
}


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


def signature_of(value: Any) -> Any:
    """Everything a result carries, for the traced-equals-untraced check."""
    if value is None or isinstance(value, int):
        return value
    run = getattr(value, "raw", value)
    return (run.backend, raw_run_of(run))


def wrong_answers(workload: Any, measured: Pass) -> Tuple[int, int]:
    """Check a seeded sample of the kept results against the references."""
    return harness.check(harness.sample(measured.checks, workload.seed, CHECK_SAMPLE))


def end_to_end(workload: Any, seconds: float) -> Tuple[Dict[str, Any], Dict[str, Any], int, int]:
    """The untraced run: metrics, context, attempted, failed."""
    context: Dict[str, Any] = {"calibration_ms_before": harness.calibration_ms()}
    setups = workload.timed_setups(SETUP_REPS)
    measured = workload.run_pass(SETUP_REPS - 1, seconds, False)
    context["calibration_ms_after"] = harness.calibration_ms()
    checked, wrong = wrong_answers(workload, measured)
    rate, p50, p90, summary = workload.summary(measured)
    context.update(summary)
    context.update(
        setup_s_reps=setups,
        latency_samples=len(measured.latencies),
        checked=checked,
        wrong=wrong,
        failures=dict(measured.failures),
    )
    metrics = {
        "setup_s": harness.metric(harness.median(setups), "s"),
        "runs_per_s": harness.metric(rate, "1/s"),
        "latency_p50_ms": harness.metric(p50 * 1e3, "ms"),
        "latency_p90_ms": harness.metric(p90 * 1e3, "ms"),
        "peak_rss_mb": harness.metric(harness.peak_rss_mb(), "MB"),
    }
    failed = sum(measured.failures.values()) + wrong
    return metrics, context, measured.attempted, failed


def per_layer(workload: Any, seconds: float, spans_path: str) -> Tuple[Dict[str, Any], Dict[str, Any], int, int]:
    """The traced run: a traced pass, a second traced pass, an untraced pass.

    The first traced pass gives the layer metrics and the spans; the
    second must repeat its exact work counters; the untraced pass must
    return bit-identical results and gives the tracing overhead.
    """
    rep = SETUP_REPS - 1
    with tracing.traced() as (tracer, counts):
        traced = workload.run_pass(rep, seconds, True)
        values = tracing.layer_metrics(
            tracer, counts, traced.service_stats, traced.cache_stats
        )
    leftovers = tracer.leftover_sites()
    with tracing.traced() as (_, repeat_counts):
        workload.run_pass(rep, seconds, True)
    plain = workload.run_pass(rep, seconds, True)
    tracer.write(spans_path)

    failures: Counter = traced.failures + plain.failures
    if counts.signature() != repeat_counts.signature():
        failures["counters_not_repeated"] += 1
    mismatched = sum(
        1 for a, b in zip(traced.signatures, plain.signatures) if a != b
    ) + abs(len(traced.signatures) - len(plain.signatures))
    if mismatched:
        failures["traced_results_differ"] += mismatched
    if leftovers:
        failures["bindings_not_restored"] += len(leftovers)
    checked, wrong = wrong_answers(workload, plain)

    values.update(workload.trace_summary(traced, plain))
    metrics = {
        name: harness.metric(values[name], unit)
        for name, unit in tracing.PER_LAYER_UNITS
    }
    context = {
        "overhead_basis": workload.OVERHEAD_BASIS,
        "spans": len(tracer.spans),
        "checked": checked,
        "wrong": wrong,
        "failures": dict(failures),
        "note": "pool workers are not traced: their time shows only as "
        "the parent-side parallel.batch span",
    }
    attempted = traced.attempted + plain.attempted
    return metrics, context, attempted, sum(failures.values()) + wrong
