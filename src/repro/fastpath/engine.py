"""Backend dispatch, ``run_spec``, batch ``sweep`` and arc-mask orbits.

This module is the public face of the fast path.  It validates inputs
with the same errors as the reference simulators, picks a backend, and
wraps the raw backend output in :class:`IndexedRun`, whose fields are
bit-for-bit identical to the statistics of
:func:`repro.core.amnesiac.simulate` (the equivalence-matrix tests
assert this on every engine pair).

Backend selection
-----------------
* ``"pure"`` -- per-node integer bitmasks; always available; cost per
  round is O(messages).  Best for small graphs and sparse frontiers.
* ``"numpy"`` -- vectorised boolean arc arrays; available when numpy
  imports; cost per round is O(arcs) regardless of frontier size.  Best
  for large dense floods.
* ``"oracle"`` -- no frontier at all: one BFS over the implicit double
  cover predicts every statistic the frontier engines report
  (termination round, message totals, per-round counts, sender sets,
  receive rounds) in O(n + m) total, independent of how many rounds
  the flood runs.  Always available; requested by name only, as the
  cross-check of the frontier engines.

``backend=None`` auto-selects between the frontier engines: numpy when
it is importable *and* the graph has at least
:data:`NUMPY_ARC_THRESHOLD` directed arcs *and* mean degree at least
:data:`NUMPY_MIN_MEAN_DEGREE` (sparse graphs run long floods, which
punish the O(arcs)-per-round engine), else pure.  The oracle is
never auto-selected -- it is a *prediction* of the process rather than
an execution of it, kept as the shared-nothing cross-check the
equivalence matrix holds bit-for-bit equal to the executions.  Long
floods need no special lane: every flood sends at most one message per
cover edge, so the pure engine's total work is O(n + m + rounds) too,
with smaller constants than a cover BFS.  Batches explicitly named
``backend="oracle"`` additionally ride the word-packed bitset sweep
(:mod:`repro.fastpath.bitset_oracle`) when they are deterministic and
at least :data:`BITSET_MIN_BATCH` runs -- an execution strategy, not a
backend name: results still report ``backend="oracle"`` and stay
bit-identical to the per-source oracle.

:func:`resolve_backend` is the one resolution rule every tier applies:
variants resolve through :func:`variant_backend`, everything else
through :func:`select_backend` -- for single runs and batches alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.api.spec import BatchKey, FloodSpec
from repro.errors import ConfigurationError
from repro.fastpath import bitset_oracle, numpy_backend, oracle_backend, pure_backend
from repro.fastpath.indexed import IndexedGraph
from repro.fastpath.variants import VariantSpec, run_variant, variant_backend
from repro.graphs.graph import Graph, Node
from repro.sync.engine import default_round_budget

PURE = "pure"
NUMPY = "numpy"
ORACLE = "oracle"

try:
    _popcount = int.bit_count  # Python >= 3.10
except AttributeError:  # pragma: no cover - Python 3.9

    def _popcount(value: int) -> int:
        return bin(value).count("1")

NUMPY_ARC_THRESHOLD = 4096
"""Auto-selection considers numpy from this many directed arcs."""

NUMPY_MIN_MEAN_DEGREE = 4
"""Auto-selection also requires this mean degree before picking numpy.

Arc count alone is the wrong crossover signal: the numpy engine pays
O(arcs) *per round*, so on sparse long-flood families the rounds
multiply a small per-round win into a large total loss.  The committed
trajectory rows (``BENCH_fastpath.json``) make this concrete -- on the
degree-2 cycle ``C4095`` (8190 arcs, past the arc threshold) the numpy
engine runs the 4096-round flood ~20x slower than pure, while on
mean-degree >= 8 graphs of the same arc count it wins.  The
``bench_allpairs.py`` crossover rows record the measurement per mean
degree; auto-selection therefore takes numpy only when the graph is
both large (arc threshold) *and* dense enough
(``num_arcs >= NUMPY_MIN_MEAN_DEGREE * n``, i.e. mean degree >= 4)
that floods stay short relative to the arc work."""

BITSET_MIN_BATCH = 16
"""Batch size at which explicit oracle batches switch to the bitset sweep.

Below this the word-packed pass cannot amortise its numpy setup over
enough runs to beat the per-source Python BFS; at 16+ runs a single
word sweep replaces 16+ full passes (``bench_allpairs.py``'s
``bitset_lane_vs_per_source`` rows measure the gain at 16 and 512
runs).  Chunked tiers shard at
:data:`repro.parallel.pool.MAX_CHUNK` = 64 = one full word, so pool
chunks of eligible batches arrive word-aligned."""


def available_backends() -> Tuple[str, ...]:
    """The backends runnable in this process (pure is always first).

    Pure and the double-cover oracle are dependency-free and always
    present; numpy appears when it is importable.
    """
    if numpy_backend.HAS_NUMPY:
        return (PURE, NUMPY, ORACLE)
    return (PURE, ORACLE)


def validate_backend_name(backend: Optional[str]) -> None:
    """Name-level backend validation, no index required.

    The part of :func:`select_backend` that depends only on the name
    and the process (numpy importability), split out so request
    validation (:class:`~repro.api.spec.FloodSpec`) can run it without
    touching -- or building -- the graph's CSR index.
    """
    if backend in (None, PURE, ORACLE):
        return
    if backend == NUMPY:
        if not numpy_backend.HAS_NUMPY:
            raise ConfigurationError(
                "numpy backend requested but numpy is not importable"
            )
        return
    raise ConfigurationError(
        f"unknown fastpath backend {backend!r}; expected one of "
        f"{(PURE, NUMPY, ORACLE)}"
    )


def select_backend(index: IndexedGraph, backend: Optional[str] = None) -> str:
    """Resolve a backend name, auto-selecting when ``backend`` is None.

    Auto-selection only ever picks a frontier engine (pure or numpy);
    the oracle must be requested by name.
    """
    validate_backend_name(backend)
    if backend is None:
        if (
            numpy_backend.HAS_NUMPY
            and index.num_arcs >= NUMPY_ARC_THRESHOLD
            and index.num_arcs >= NUMPY_MIN_MEAN_DEGREE * index.n
        ):
            return NUMPY
        return PURE
    return backend


def _resolve_budget(graph: Graph, max_rounds: Optional[int]) -> int:
    if max_rounds is None:
        return default_round_budget(graph)
    if max_rounds < 1:
        raise ConfigurationError("max_rounds must be >= 1")
    return max_rounds


@dataclass
class IndexedRun:
    """Result of one fast-path flood, in id space with label accessors.

    ``termination_round``, ``total_messages`` and ``round_edge_counts``
    carry exactly the semantics of
    :class:`repro.core.amnesiac.FloodingRun`; ``sender_sets()`` and
    ``receive_rounds()`` convert the id-space payloads back to node
    labels (and are only available when the run collected them --
    sweeps skip collection for speed).
    """

    index: IndexedGraph
    sources: Tuple[Node, ...]
    backend: str
    terminated: bool
    termination_round: int
    total_messages: int
    round_edge_counts: List[int]
    sender_ids: Optional[List[List[int]]] = None
    receive_rounds_by_id: Optional[List[List[int]]] = None
    variant: Optional[VariantSpec] = None
    reached_count: Optional[int] = None

    @property
    def graph(self) -> Graph:
        return self.index.graph

    def coverage(self, component_size: int) -> float:
        """Fraction of a component of ``component_size`` nodes reached.

        Available on variant runs (their steppers count reached nodes
        for free) and on any run collected with
        ``collect_receives=True``.
        """
        if component_size <= 0:
            return 1.0
        reached = self.reached_count
        if reached is None:
            if self.receive_rounds_by_id is None:
                raise ConfigurationError(
                    "reached nodes were not collected for this run "
                    "(pass collect_receives=True or run a variant)"
                )
            source_ids = {self.index.ids[label] for label in self.sources}
            reached = sum(
                1
                for node_id, rounds in enumerate(self.receive_rounds_by_id)
                if rounds or node_id in source_ids
            )
        return reached / component_size

    def sender_sets(self) -> List[FrozenSet[Node]]:
        """Per round, the frozenset of sending node labels."""
        if self.sender_ids is None:
            raise ConfigurationError(
                "sender sets were not collected for this run "
                "(pass collect_senders=True)"
            )
        labels = self.index.labels
        return [
            frozenset(labels[sender] for sender in senders)
            for senders in self.sender_ids
        ]

    def receive_rounds(self) -> Dict[Node, Tuple[int, ...]]:
        """Per node label, the ascending rounds it received the message."""
        if self.receive_rounds_by_id is None:
            raise ConfigurationError(
                "receive rounds were not collected for this run "
                "(pass collect_receives=True)"
            )
        labels = self.index.labels
        return {
            labels[node_id]: tuple(rounds)
            for node_id, rounds in enumerate(self.receive_rounds_by_id)
        }

    def __repr__(self) -> str:
        status = "terminated" if self.terminated else "cut off"
        return (
            f"IndexedRun(rounds={self.termination_round}, "
            f"messages={self.total_messages}, backend={self.backend}, {status})"
        )


def _dispatch(
    index: IndexedGraph,
    source_ids: Sequence[int],
    key: BatchKey,
    run_key: int = 0,
) -> pure_backend.RawRun:
    """Run one flood described by a resolved :class:`BatchKey`.

    The single execution funnel: the serial entry points, the worker
    pool's chunk bodies and the service's serial executor all reach the
    backends through this function, with the same key object they
    batched on -- so "batchable together" and "runs identically" are
    one definition.
    """
    if key.variant is not None:
        return run_variant(
            index,
            source_ids,
            key.budget,
            key.variant,
            run_key,
            collect_senders=key.collect_senders,
            collect_receives=key.collect_receives,
        )
    if key.backend == NUMPY:
        runner = numpy_backend.run
    elif key.backend == ORACLE:
        runner = oracle_backend.run
    else:
        runner = pure_backend.run
    return runner(
        index,
        source_ids,
        key.budget,
        collect_senders=key.collect_senders,
        collect_receives=key.collect_receives,
    )


def dispatch_batch(
    index: IndexedGraph,
    id_lists: Sequence[Sequence[int]],
    key: BatchKey,
    run_keys: Optional[Sequence[int]] = None,
) -> List[pure_backend.RawRun]:
    """Run one resolved batch of source-id lists; one RawRun per list.

    The batch-granular execution funnel layered over :func:`_dispatch`:
    the serial spec sweep, the worker pool's chunk bodies and the
    service's serial executor all run their batches through this
    function.  Deterministic oracle batches of at least
    :data:`BITSET_MIN_BATCH` runs take the word-packed bitset sweep
    (:mod:`repro.fastpath.bitset_oracle`) when numpy is importable --
    bit-identical to the per-run loop, 64 floods per cover pass;
    everything else (variants, frontier backends, small batches, no
    numpy) falls through to the per-run ``_dispatch`` loop.  Variants
    never take the bitset lane: their steppers execute a stochastic
    process per ``run_keys`` stream, not a cover prediction.
    """
    if (
        key.variant is None
        and key.backend == ORACLE
        and bitset_oracle.HAS_NUMPY
        and len(id_lists) >= BITSET_MIN_BATCH
    ):
        return bitset_oracle.run_batch(
            index,
            id_lists,
            key.budget,
            collect_senders=key.collect_senders,
            collect_receives=key.collect_receives,
        )
    return [
        _dispatch(
            index,
            ids,
            key,
            run_keys[position] if run_keys is not None else 0,
        )
        for position, ids in enumerate(id_lists)
    ]


def wrap_raw_run(
    index: IndexedGraph,
    source_ids: Sequence[int],
    backend: str,
    raw: pure_backend.RawRun,
    variant: Optional[VariantSpec] = None,
) -> IndexedRun:
    """Build an :class:`IndexedRun` from a backend's raw statistics tuple.

    The single place the ``RawRun`` shape is interpreted: the serial
    entry points below and the worker pool's result rehydration
    (:mod:`repro.parallel.pool`) all construct results here, so serial
    and sharded runs cannot drift apart field by field.  Variant
    steppers append a reached-node count as a sixth element
    (:data:`~repro.fastpath.variants.VariantRawRun`).
    """
    terminated, round_counts, total, sender_ids, receives = raw[:5]
    reached = raw[5] if len(raw) > 5 else None
    return IndexedRun(
        index=index,
        sources=tuple(index.labels[source] for source in source_ids),
        backend=backend,
        terminated=terminated,
        termination_round=len(round_counts),
        total_messages=total,
        round_edge_counts=round_counts,
        sender_ids=sender_ids,
        receive_rounds_by_id=receives,
        variant=variant,
        reached_count=reached,
    )


def raw_run_of(run: IndexedRun) -> pure_backend.RawRun:
    """Project an :class:`IndexedRun` back to its backend raw tuple.

    The inverse of :func:`wrap_raw_run`, and the only other place the
    ``RawRun`` shape is spelled out: the result cache
    (:mod:`repro.cache`) persists this projection -- everything the
    wrap funnel interprets, nothing process-local (no index, no label
    tuples) -- so a cached entry rehydrates through the same funnel as
    a fresh backend result and the two cannot drift apart field by
    field.  Variant runs round-trip their reached-node count as the
    sixth element, exactly as their steppers emit it.
    """
    raw = (
        run.terminated,
        run.round_edge_counts,
        run.total_messages,
        run.sender_ids,
        run.receive_rounds_by_id,
    )
    if run.reached_count is not None:
        return raw + (run.reached_count,)  # type: ignore[return-value]
    return raw


def _require_fastpath_spec(spec: FloodSpec) -> None:
    if spec.scenario is not None:
        raise ConfigurationError(
            f"scenario {spec.scenario!r} runs on the reference engines; "
            f"use FloodSession.run (the fast path has no stepper for it)"
        )


def run_spec(spec: FloodSpec, index: Optional[IndexedGraph] = None) -> IndexedRun:
    """One flood from a validated :class:`FloodSpec`, serially.

    The single-run core behind :func:`repro.core.amnesiac.simulate` and
    ``FloodSession.run``; it resolves the backend with the same
    :func:`resolve_backend` rule as every batch tier.  A ``variant``
    spec runs its stochastic/memory stepper on the stream
    ``spec.run_key()``.  Pass ``index`` to reuse a prebuilt
    :class:`IndexedGraph`.
    """
    _require_fastpath_spec(spec)
    if index is None:
        index = spec.index()
    source_ids = index.resolve_sources(spec.sources)
    chosen = resolve_backend(index, spec.backend, spec.variant)
    raw = _dispatch(index, source_ids, spec.batch_key(chosen), spec.run_key())
    return wrap_raw_run(index, source_ids, chosen, raw, spec.variant)


def routed_sweep_backend(
    index: IndexedGraph, backend: Optional[str] = None
) -> str:
    """Delegates to :func:`select_backend`; no ``repro`` caller remains.

    Kept only for perfbench's binding table; delete with ROADMAP item 4.
    """
    return select_backend(index, backend)


def resolve_backend(
    index: IndexedGraph,
    backend: Optional[str],
    variant: Optional[VariantSpec] = None,
) -> str:
    """The backend a request runs on: the one resolution rule.

    Every tier -- ``run_spec``, the serial and pooled sweeps, the
    session's planner and cache keys, the service router -- resolves
    here, so one spec resolves to one backend wherever it runs.  A
    variant resolves through :func:`variant_backend` (the pure stepper,
    never the oracle); everything else through :func:`select_backend`,
    which depends only on the graph and the request, never on batch
    size or budget.
    """
    if variant is not None:
        return variant_backend(index, backend, variant)
    return select_backend(index, backend)


def sweep(
    graph: Graph,
    source_sets: Iterable[Iterable[Node]],
    max_rounds: Optional[int] = None,
    backend: Optional[str] = None,
    collect_senders: bool = False,
    collect_receives: bool = False,
    variant: Optional[VariantSpec] = None,
) -> List[IndexedRun]:
    """Run many floods over one graph, indexing it exactly once.

    The batch form behind ``all_pairs_termination``, the
    initial-conditions census sweeps and the scaling benchmarks: the
    CSR freeze, backend choice and budget resolution are hoisted out of
    the per-run loop, and per-run collection defaults to the cheap
    statistics (termination round, message totals, per-round counts).

    Results come back in input order, one :class:`IndexedRun` per
    source set, and are plain picklable dataclasses (the shared index
    serialises without its process-local memo caches), so they can
    cross process boundaries -- :func:`repro.parallel.parallel_sweep`
    is the drop-in sharded form of this function for batches large
    enough to spread across cores.

    ``backend=None`` auto-selects a frontier engine with
    :func:`select_backend`, the same rule every tier applies.  Pass
    ``backend="oracle"`` for the double-cover cross-check: it answers
    from one cover BFS per source set (or one word-packed sweep per
    batch) and is held bit-for-bit equal to the frontier engines by the
    equivalence matrix.

    A ``variant`` spec (:mod:`repro.fastpath.variants`) runs every
    source set through the stochastic/memory stepper instead: run
    ``i`` of the batch draws from the counter-based stream
    ``derive_key(variant.seed, i)``, so results are bit-identical to
    any resharding of the same batch (``parallel_sweep`` relies on
    this) and never route to the oracle.

    >>> from repro.fastpath import sweep
    >>> from repro.graphs import cycle_graph
    >>> runs = sweep(cycle_graph(9), [[0], [3], [0, 4]])
    >>> [run.termination_round for run in runs]
    [9, 9, 7]
    >>> fast = sweep(cycle_graph(9), [[0], [3], [0, 4]], backend="oracle")
    >>> [run.termination_round for run in fast]
    [9, 9, 7]

    This is a shim over the declarative request path: every source set
    becomes a :class:`~repro.api.spec.FloodSpec` (position ``i`` at
    stream ``i`` for variant work) and the batch runs through
    :func:`sweep_specs`.
    """
    specs = [
        FloodSpec(
            graph=graph,
            sources=tuple(sources),
            max_rounds=max_rounds,
            backend=backend,
            variant=variant,
            stream=position if variant is not None else 0,
            collect_senders=collect_senders,
            collect_receives=collect_receives,
        )
        for position, sources in enumerate(source_sets)
    ]
    if not specs:
        # Preserve the legacy contract that an empty batch still
        # validates its budget and backend before returning nothing.
        _resolve_budget(graph, max_rounds)
        resolve_backend(IndexedGraph.of(graph), backend, variant)
        return []
    return sweep_specs(specs)


def ensure_homogeneous_specs(specs: Sequence[FloodSpec]) -> FloodSpec:
    """Check a spec batch agrees on everything execution-relevant.

    Specs of one batch may differ only in sources and RNG ``stream``;
    anything that changes how the backend must run them (graph, budget,
    backend request, variant, collection flags) must
    match, because the whole batch resolves to a single
    :class:`BatchKey`.  Returns the lead spec.
    """
    head = specs[0]
    _require_fastpath_spec(head)
    for spec in specs[1:]:
        _require_fastpath_spec(spec)
        if (
            spec.graph != head.graph
            or spec.max_rounds != head.max_rounds
            or spec.backend != head.backend
            or spec.variant != head.variant
            or spec.collect_senders != head.collect_senders
            or spec.collect_receives != head.collect_receives
        ):
            raise ConfigurationError(
                "sweep_specs requires a homogeneous batch (same graph, "
                "max_rounds, backend, variant and collection "
                "flags); FloodSession.sweep groups heterogeneous specs"
            )
    return head


def batch_key_of(specs: Sequence[FloodSpec], index: IndexedGraph) -> BatchKey:
    """Resolve one homogeneous spec batch to its executable BatchKey.

    The shared front half of every batch tier (serial
    :func:`sweep_specs`, the worker pool, the service's batch path):
    checks the specs agree on everything execution-relevant
    (:func:`ensure_homogeneous_specs`), then runs
    :func:`resolve_backend` once for the lead spec.
    """
    head = ensure_homogeneous_specs(specs)
    return head.batch_key(resolve_backend(index, head.backend, head.variant))


def sweep_specs(
    specs: Sequence[FloodSpec], index: Optional[IndexedGraph] = None
) -> List[IndexedRun]:
    """Run a homogeneous batch of specs serially, indexing once.

    The spec-native core behind :func:`sweep`: all specs must share
    their graph and execution-relevant fields (they may differ in
    sources and RNG ``stream``), the CSR freeze and backend resolution are
    hoisted out of the loop, and each run draws from its *own* spec's
    stream key -- so a batch built by the :func:`sweep` shim reproduces
    the legacy position-keyed randomness exactly.
    """
    specs = list(specs)
    if not specs:
        return []
    if index is None:
        index = specs[0].index()
    key = batch_key_of(specs, index)
    id_lists = [index.resolve_sources(spec.sources) for spec in specs]
    run_keys = (
        [spec.run_key() for spec in specs] if key.variant is not None else None
    )
    raw_runs = dispatch_batch(index, id_lists, key, run_keys)
    return [
        wrap_raw_run(index, source_ids, key.backend, raw, key.variant)
        for source_ids, raw in zip(id_lists, raw_runs)
    ]


# ----------------------------------------------------------------------
# Arc-mask configurations (arbitrary initial conditions)
# ----------------------------------------------------------------------
#
# A configuration -- any set of in-transit directed messages, not just
# the source-style states the paper starts from -- packs into a single
# arbitrary-precision int with one bit per arc slot.  Ints are hashable
# and compare in O(words), so orbit detection over the exponential
# configuration space runs on machine integers instead of frozensets of
# label tuples.


def arc_mask_of(
    index: IndexedGraph, configuration: Iterable[Tuple[Node, Node]]
) -> int:
    """Pack labelled directed messages into an arc bitmask."""
    mask = 0
    for sender, receiver in configuration:
        mask |= 1 << index.arc_slot(sender, receiver)
    return mask


def configuration_of_mask(
    index: IndexedGraph, mask: int
) -> FrozenSet[Tuple[Node, Node]]:
    """Unpack an arc bitmask back into labelled directed messages."""
    arcs = []
    while mask:
        low = mask & -mask
        arcs.append(index.arc_of_slot(low.bit_length() - 1))
        mask ^= low
    return frozenset(arcs)


def step_arc_mask(index: IndexedGraph, mask: int) -> int:
    """One synchronous round of amnesiac flooding on an arc bitmask.

    The integer-space twin of :func:`repro.core.amnesiac.step_frontier`:
    every receiver forwards along the complement of the slots it heard
    along.
    """
    targets = index.targets
    reverse_bit = index.reverse_bit
    heard: Dict[int, int] = {}
    remaining = mask
    while remaining:
        low = remaining & -remaining
        slot = low.bit_length() - 1
        remaining ^= low
        receiver = targets[slot]
        heard[receiver] = heard.get(receiver, 0) | reverse_bit[slot]
    offsets = index.offsets
    full_masks = index.full_masks
    next_mask = 0
    for receiver, heard_mask in heard.items():
        send = full_masks[receiver] & ~heard_mask
        if send:
            next_mask |= send << offsets[receiver]
    return next_mask


def evolve_arc_mask(
    index: IndexedGraph, mask: int
) -> Tuple[bool, int, Optional[int], int]:
    """Decide termination of a configuration by exact orbit detection.

    Returns ``(terminates, steps_to_outcome, cycle_length, peak_size)``
    with the semantics of
    :class:`repro.core.initial_conditions.EvolutionResult`.
    """
    seen: Dict[int, int] = {mask: 0}
    current = mask
    peak = _popcount(mask)
    step = 0
    while current:
        current = step_arc_mask(index, current)
        step += 1
        size = _popcount(current)
        if size > peak:
            peak = size
        first_seen = seen.get(current)
        if first_seen is not None:
            return False, first_seen, step - first_seen, peak
        seen[current] = step
    return True, step, None, peak
