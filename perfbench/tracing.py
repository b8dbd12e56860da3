"""Span tracing of the program's layers, from outside the program.

:class:`Tracer` replaces public functions and methods of ``repro`` with
timing wrappers at every *binding site*: each ``repro`` module
attribute that refers to the function (``from x import f`` copies the
reference, so patching only the defining module would miss callers),
or the class attribute for methods.  Functions that modules import
inside a function body resolve through the defining module at call
time, so they are covered by the same patch.  :meth:`Tracer.restore`
puts every original back.

Each span is ``(id, name, start, end, parent id, request id)``.  Spans
stay in memory until :meth:`Tracer.write`.  A wrapper entered while a
span of the same name is open in the same context records nothing (so
a public function calling another public function of the same layer is
timed once).  Wrappers run only in the process that installed them:
forked pool workers inherit the patched modules but record nothing, so
worker-side time is visible only as the parent's ``parallel.batch``
span.

:func:`install_layers` instruments the layers and :class:`LayerCounts`
keeps the exact work counters taken at the execution funnels.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import pickle
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

REQUEST: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "perfbench_request", default=None
)
"""The request id of the current context (set per open-loop request task)."""

_OPEN: "contextvars.ContextVar[Tuple[str, ...]]" = contextvars.ContextVar(
    "perfbench_open", default=()
)
_PARENT: "contextvars.ContextVar[int]" = contextvars.ContextVar(
    "perfbench_parent", default=0
)

Span = Tuple[int, str, float, float, int, Optional[int]]
After = Callable[[Span, tuple, dict, Any], None]

# Modules whose bindings are patched; imported before patching so that
# no module can copy a wrapper into its namespace after the fact.
PRELOAD = (
    "repro.graphs",
    "repro.api",
    "repro.api.session",
    "repro.api.scenarios",
    "repro.cache",
    "repro.core",
    "repro.fastpath",
    "repro.fastpath.probe",
    "repro.parallel",
    "repro.service",
)


PER_LAYER_UNITS = (
    ("graphs.build_s", "s"),
    ("fastpath.index_build_ms", "ms"),
    ("parallel.pool_start_ms", "ms"),
    ("fastpath.select_us", "us"),
    ("fastpath.probe_ms", "ms"),
    ("fastpath.probe_calls", "count"),
    ("fastpath.exec_ms_per_run", "ms"),
    ("fastpath.runs.pure", "count"),
    ("fastpath.runs.numpy", "count"),
    ("fastpath.runs.oracle", "count"),
    ("fastpath.runs.bitset", "count"),
    ("fastpath.rounds_total", "count"),
    ("fastpath.messages_total", "count"),
    ("parallel.batch_ms", "ms"),
    ("parallel.chunks", "count"),
    ("parallel.result_bytes_per_run", "bytes"),
    ("core.allpairs_ms", "ms"),
    ("api.spec_build_us", "us"),
    ("api.digest_us", "us"),
    ("api.wrap_us", "us"),
    ("api.sweep_overhead_ms", "ms"),
    ("cache.key_us", "us"),
    ("cache.get_us", "us"),
    ("cache.put_us", "us"),
    ("cache.decode_us", "us"),
    ("cache.encode_us", "us"),
    ("cache.hit_frac", "fraction"),
    ("cache.coalesced", "count"),
    ("cache.evictions", "count"),
    ("service.front_us", "us"),
    ("service.window_ms", "ms"),
    ("service.handoff_ms", "ms"),
    ("service.batch_size_mean", "count"),
    ("service.coalesced_batches", "count"),
    ("service.largest_batch", "count"),
    ("service.rejected", "count"),
    ("service.timeouts", "count"),
    ("service.loop_lag_p99_ms", "ms"),
    ("service.latency_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
)
"""Every per-layer metric of a traced run, with its unit, in report order."""


class Tracer:
    """Wraps functions at their binding sites and records spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []
        self._wrappers: List[Any] = []
        self._pid = os.getpid()

    # -- wrapping ------------------------------------------------------

    def wrap(
        self, fn: Callable, name: str, after: Optional[After] = None
    ) -> Callable:
        """A span-recording wrapper of ``fn`` (a coroutine stays a coroutine)."""
        spans, ids, pid = self.spans, self._ids, self._pid

        def enter() -> Optional[Tuple[int, int, Any, Any]]:
            open_names = _OPEN.get()
            if name in open_names or os.getpid() != pid:
                return None
            sid = next(ids)
            parent = _PARENT.get()
            return sid, parent, _OPEN.set(open_names + (name,)), _PARENT.set(sid)

        def leave(state, start: float, args, kwargs, result, ok: bool) -> None:
            end = time.perf_counter()
            sid, parent, open_token, parent_token = state
            _PARENT.reset(parent_token)
            _OPEN.reset(open_token)
            span = (sid, name, start, end, parent, REQUEST.get())
            spans.append(span)
            if ok and after is not None:
                after(span, args, kwargs, result)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                state = enter()
                if state is None:
                    return await fn(*args, **kwargs)
                start = time.perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                except BaseException:
                    leave(state, start, args, kwargs, None, False)
                    raise
                leave(state, start, args, kwargs, result, True)
                return result

            wrapper: Callable = async_wrapper
        else:

            @functools.wraps(fn)
            def sync_wrapper(*args, **kwargs):
                state = enter()
                if state is None:
                    return fn(*args, **kwargs)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    leave(state, start, args, kwargs, None, False)
                    raise
                leave(state, start, args, kwargs, result, True)
                return result

            wrapper = sync_wrapper
        self._wrappers.append(wrapper)
        return wrapper

    def patch_function(
        self, fn: Callable, name: str, after: Optional[After] = None
    ) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that binds it."""
        wrapper = self.wrap(fn, name, after)
        patched = len(self._patches)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        if len(self._patches) == patched:
            raise RuntimeError(f"no binding site found for {name}")

    def patch_method(
        self, owner: type, attr: str, name: str, after: Optional[After] = None
    ) -> None:
        """Replace a method (plain or classmethod) on its class."""
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement: Any = classmethod(
                self.wrap(original.__func__, name, after)
            )
        else:
            replacement = self.wrap(original, name, after)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every original binding back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def leftover_sites(self) -> List[str]:
        """Module or class attributes still bound to one of this tracer's wrappers."""
        wrappers = {id(wrapper) for wrapper in self._wrappers}
        found = []
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    found.append(f"{module_name}.{attr}")
                if isinstance(value, type):
                    for member, raw in vars(value).items():
                        func = getattr(raw, "__func__", raw)
                        if id(func) in wrappers:
                            found.append(f"{module_name}.{attr}.{member}")
        return found

    # -- reading -------------------------------------------------------

    def by_name(self, name: str) -> List[Span]:
        return [span for span in self.spans if span[1] == name]

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent:
                children.setdefault(parent, []).append((start, end))
        result = {}
        for sid, _, start, end, _, _ in self.spans:
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(sid, ())):
                child_start = max(child_start, cursor)
                child_end = min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            result[sid] = (end - start) - covered
        return result

    def write(self, path: str) -> None:
        """Write the spans as JSON lines (times relative to the first span)."""
        origin = min((span[2] for span in self.spans), default=0.0)
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for sid, name, start, end, parent, rid in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start_us": round((start - origin) * 1e6, 1),
                            "end_us": round((end - origin) * 1e6, 1),
                            "parent": parent,
                            "request": rid,
                        }
                    )
                    + "\n"
                )


class LayerCounts:
    """Exact work counters and per-request timestamps taken at the funnels.

    Runs are counted once per execution, at the outermost funnel that
    returns them: the serial funnels (``fastpath.engine.sweep_specs``,
    ``parallel.serial_batch_ids``) and the pool (``SweepPool.sweep_specs``,
    ``parallel_sweep``).  Bitset-lane runs are counted at
    ``bitset_oracle.run_batch`` when they execute in this process; for
    pooled oracle batches they are computed from the chunk sizes the
    pool uses and ``BITSET_MIN_BATCH``, because worker-side calls are
    not visible here.
    """

    COUNTING = ("fastpath.exec", "parallel.batch")

    def __init__(self) -> None:
        self.runs: Counter = Counter()
        self.rounds = 0
        self.messages = 0
        self.bitset = 0
        self.exec_runs = 0
        self.chunks = 0
        self.pooled_runs: List[Any] = []
        self.pool_workers: Dict[int, int] = {}
        self.query_start: Dict[int, float] = {}
        self.added: Dict[int, float] = {}
        self.exec_window: Dict[int, Tuple[float, float]] = {}
        self.resumed: Dict[int, float] = {}
        self._id_lists: Dict[int, Tuple[int, Any]] = {}

    def signature(self) -> Tuple:
        """The counters that must repeat exactly for the same seed."""
        return (tuple(sorted(self.runs.items())), self.rounds, self.messages)

    # -- after-hooks ---------------------------------------------------

    def _count(self, runs: List[Any]) -> None:
        for run in runs:
            self.runs[run.backend] += 1
            self.rounds += run.termination_round
            self.messages += run.total_messages

    def serial_exec(self, span: Span, args: tuple, kwargs: dict, runs: Any) -> None:
        self.exec_runs += len(runs)
        if not set(self.COUNTING) & set(_OPEN.get()):
            self._count(runs)
        if len(args) > 1 and isinstance(args[1], list):
            # serial_batch_ids(index, id_lists, ...): map the id lists
            # back to the service requests that were batched together.
            for id_list in args[1]:
                entry = self._id_lists.pop(id(id_list), None)
                if entry is not None:
                    self.exec_window[entry[0]] = (span[2], span[3])

    def pooled(self, span: Span, args: tuple, kwargs: dict, runs: Any) -> None:
        from repro.fastpath.engine import BITSET_MIN_BATCH, ORACLE
        from repro.parallel.pool import default_chunksize

        if set(self.COUNTING) & set(_OPEN.get()):
            return
        self._count(runs)
        workers = self.pool_workers.pop(span[0], None)
        if workers is None and hasattr(args[0], "workers"):
            workers = args[0].workers  # SweepPool.sweep_specs(self, ...)
        if workers is None:
            return  # parallel_sweep ran serially; its funnel counted it
        self.pooled_runs.extend(runs)
        if not runs:
            return
        size = default_chunksize(len(runs), workers)
        chunk_sizes = [
            min(size, len(runs) - start) for start in range(0, len(runs), size)
        ]
        self.chunks += len(chunk_sizes)
        if runs[0].backend == ORACLE and runs[0].variant is None:
            self.bitset += sum(c for c in chunk_sizes if c >= BITSET_MIN_BATCH)

    def pool_started(self, span: Span, args: tuple, kwargs: dict, _: Any) -> None:
        self.pool_workers[span[4]] = args[0].workers

    def bitset_batch(self, span: Span, args: tuple, kwargs: dict, raws: Any) -> None:
        self.bitset += len(raws)

    def batcher_add(self, span: Span, args: tuple, kwargs: dict, _: Any) -> None:
        request = args[2]
        rid = span[5]
        if rid is None:
            return
        self.added[rid] = span[2]
        self._id_lists[id(request.id_list)] = (rid, request.id_list)

    def query_done(self, span: Span, args: tuple, kwargs: dict, _: Any) -> None:
        rid = span[5]
        if rid is not None:
            self.query_start[rid] = span[2]
            self.resumed[rid] = span[3]

    # -- derived -------------------------------------------------------

    def result_bytes_per_run(self) -> float:
        """Mean pickled size of a pooled run's raw statistics tuple."""
        from repro.fastpath.engine import raw_run_of

        if not self.pooled_runs:
            return 0.0
        total = sum(
            len(pickle.dumps(raw_run_of(run), protocol=pickle.HIGHEST_PROTOCOL))
            for run in self.pooled_runs
        )
        return total / len(self.pooled_runs)


def install_layers(tracer: Tracer) -> LayerCounts:
    """Patch every measured layer's public functions; returns the counters."""
    for module_name in PRELOAD:
        importlib.import_module(module_name)
    from repro import graphs
    from repro.api.result import FloodResult
    from repro.api.session import FloodSession
    from repro.api.spec import FloodSpec
    from repro.cache import keys as cache_keys
    from repro.cache.lru import ResultCache
    from repro.core import multisource
    from repro.fastpath import bitset_oracle, engine, probe, variants
    from repro.fastpath.indexed import IndexedGraph
    from repro.graphs.graph import Graph
    from repro.parallel import pool
    from repro.service import routing
    from repro.service.batcher import MicroBatcher
    from repro.service.service import FloodService

    counts = LayerCounts()
    function_spans = [
        (graphs.erdos_renyi, "graphs.build", None),
        (graphs.cycle_graph, "graphs.build", None),
        (engine.select_backend, "fastpath.select", None),
        (engine.routed_sweep_backend, "fastpath.select", None),
        (probe.routed_backend, "fastpath.select", None),
        (variants.variant_backend, "fastpath.select", None),
        (probe.probe_termination_rounds, "fastpath.probe", None),
        (engine.sweep_specs, "fastpath.exec", counts.serial_exec),
        (pool.serial_batch_ids, "fastpath.exec", counts.serial_exec),
        (bitset_oracle.run_batch, "fastpath.bitset", counts.bitset_batch),
        (pool.parallel_sweep, "parallel.batch", counts.pooled),
        (multisource.all_pairs_termination, "core.allpairs", None),
        (cache_keys.result_cache_key, "cache.key", None),
        (cache_keys.decode_run, "cache.decode", None),
        (cache_keys.encode_run, "cache.encode", None),
    ]
    for fn, name, after in function_spans:
        tracer.patch_function(fn, name, after)
    method_spans = [
        (Graph, "relabel", "graphs.build", None),
        (IndexedGraph, "__init__", "fastpath.index_build", None),
        (pool.SweepPool, "__init__", "parallel.pool_start", counts.pool_started),
        (pool.SweepPool, "sweep_specs", "parallel.batch", counts.pooled),
        (routing.Router, "resolve", "fastpath.select", None),
        (FloodSpec, "__init__", "api.spec_build", None),
        (FloodSpec, "from_scenario", "api.spec_build", None),
        (FloodSpec, "digest", "api.digest", None),
        (FloodResult, "from_indexed", "api.wrap", None),
        (FloodSession, "sweep", "api.sweep", None),
        (ResultCache, "get", "cache.get", None),
        (ResultCache, "put", "cache.put", None),
        (FloodService, "query_spec", "service.query", counts.query_done),
        (MicroBatcher, "add", "service.add", counts.batcher_add),
    ]
    for owner, attr, name, after in method_spans:
        tracer.patch_method(owner, attr, name, after)
    return counts


@contextlib.contextmanager
def traced() -> Iterator[Tuple[Tracer, LayerCounts]]:
    """Install the layer wrappers for the duration of the block."""
    tracer = Tracer()
    try:
        counts = install_layers(tracer)
        yield tracer, counts
    finally:
        tracer.restore()


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(
    tracer: Tracer,
    counts: LayerCounts,
    service_stats: Any = None,
    cache_stats: Any = None,
) -> Dict[str, float]:
    """Per-layer metric values from one traced pass.

    Idle layers report 0.  Times are means per call unless the name
    says otherwise; ``graphs.build_s``, ``fastpath.index_build_ms``,
    ``parallel.pool_start_ms`` and ``fastpath.probe_ms`` are totals.
    """
    durations: Dict[str, List[float]] = {}
    for _, name, start, end, _, _ in tracer.spans:
        durations.setdefault(name, []).append(end - start)
    own = tracer.self_times()

    def self_of(name: str) -> List[float]:
        return [own[span[0]] for span in tracer.by_name(name)]

    def total(name: str) -> float:
        return sum(durations.get(name, ()))

    def mean(name: str) -> float:
        return _mean(durations.get(name, []))

    exec_total = total("fastpath.exec")
    oracle_runs = counts.runs.get("oracle", 0)
    values = {
        "graphs.build_s": total("graphs.build"),
        "fastpath.index_build_ms": total("fastpath.index_build") * 1e3,
        "parallel.pool_start_ms": total("parallel.pool_start") * 1e3,
        "fastpath.select_us": _mean(self_of("fastpath.select")) * 1e6,
        "fastpath.probe_ms": total("fastpath.probe") * 1e3,
        "fastpath.probe_calls": float(len(durations.get("fastpath.probe", []))),
        "fastpath.exec_ms_per_run": (
            exec_total * 1e3 / counts.exec_runs if counts.exec_runs else 0.0
        ),
        "fastpath.runs.pure": float(counts.runs.get("pure", 0)),
        "fastpath.runs.numpy": float(counts.runs.get("numpy", 0)),
        "fastpath.runs.oracle": float(oracle_runs - counts.bitset),
        "fastpath.runs.bitset": float(counts.bitset),
        "fastpath.rounds_total": float(counts.rounds),
        "fastpath.messages_total": float(counts.messages),
        "parallel.batch_ms": mean("parallel.batch") * 1e3,
        "parallel.chunks": float(counts.chunks),
        "parallel.result_bytes_per_run": counts.result_bytes_per_run(),
        "core.allpairs_ms": mean("core.allpairs") * 1e3,
        "api.spec_build_us": mean("api.spec_build") * 1e6,
        "api.digest_us": mean("api.digest") * 1e6,
        "api.wrap_us": mean("api.wrap") * 1e6,
        "api.sweep_overhead_ms": _mean(self_of("api.sweep")) * 1e3,
        "cache.key_us": mean("cache.key") * 1e6,
        "cache.get_us": mean("cache.get") * 1e6,
        "cache.put_us": mean("cache.put") * 1e6,
        "cache.decode_us": mean("cache.decode") * 1e6,
        "cache.encode_us": mean("cache.encode") * 1e6,
    }
    if cache_stats is not None:
        values["cache.hit_frac"] = cache_stats.hit_rate()
        values["cache.coalesced"] = float(cache_stats.coalesced)
        values["cache.evictions"] = float(cache_stats.evictions)
    else:
        values.update(
            {"cache.hit_frac": 0.0, "cache.coalesced": 0.0, "cache.evictions": 0.0}
        )
    fronts = [
        counts.added[rid] - counts.query_start[rid]
        for rid in counts.added
        if rid in counts.query_start
    ]
    windows = [
        counts.exec_window[rid][0] - counts.added[rid]
        for rid in counts.exec_window
        if rid in counts.added
    ]
    handoffs = [
        counts.resumed[rid] - counts.exec_window[rid][1]
        for rid in counts.exec_window
        if rid in counts.resumed
    ]
    values["service.front_us"] = _mean(fronts) * 1e6
    values["service.window_ms"] = _mean(windows) * 1e3
    values["service.handoff_ms"] = _mean(handoffs) * 1e3
    if service_stats is not None:
        values["service.batch_size_mean"] = service_stats.mean_batch_size()
        values["service.coalesced_batches"] = float(service_stats.coalesced_batches)
        values["service.largest_batch"] = float(service_stats.largest_batch)
        values["service.rejected"] = float(service_stats.rejected)
        values["service.timeouts"] = float(service_stats.timeouts)
    else:
        for name in (
            "service.batch_size_mean",
            "service.coalesced_batches",
            "service.largest_batch",
            "service.rejected",
            "service.timeouts",
        ):
            values[name] = 0.0
    return values
