"""Arc-mask steppers for every non-deterministic flooding variant.

The flooding variants of :mod:`repro.variants` (probabilistic thinning,
Bernoulli message loss, ``k``-memory windows, periodic re-injection,
concurrent multi-message floods, random-delay asynchrony, dynamic
graphs) all started life on set-based reference steppers.  This module
ports them onto the CSR index and the per-node bitmask frontier of
:mod:`repro.fastpath.pure_backend`, so every registered scenario --
Monte-Carlo surveys, injection phase diagrams, metastability sweeps --
runs at fast-path cost, batches through :mod:`repro.parallel`, serves
through :mod:`repro.service` and keys the result cache, all as plain
:class:`VariantSpec` requests.  The set-based engines stay in the tree
as the pinned references the equivalence matrix checks against.

Steppers
--------
The round-granular variants run on the one round loop,
:func:`repro.fastpath.pure_backend.flood`, and differ only in their
seeding and their *forward rule* -- what a receiver sends next, given
the arcs it heard from this round:

* ``thinning`` / ``loss``: the complement, thinned by the next round's
  survival draws;
* ``kmemory``: the complement of the last ``k`` rounds' heard-masks;
* ``dynamic``: the complement, masked by the next round's live arcs;
* ``multi_message``: the plain complement, one flood per payload,
  folded into one record.

Two steppers keep their own clocks and so their own loops:
``periodic`` ticks through its injection phase even when nothing is in
flight, and ``random_delay`` is step-granular, with held arcs carried
across steps.

Randomness
----------
Stochastic steppers draw nothing sequentially.  Every keep/drop
decision is a counter-based hash of its coordinates (:mod:`repro.rng`):

    ``survive(arc) = slot_draw(round_key(run_key, round), slot) < p``

with ``run_key = derive_key(spec.seed, run_index)``; the step-granular
``random_delay`` stepper draws per-(run, step, arc) the same way, with
the async step index as the round coordinate.  The consequences are
the contract of this module:

* a run's outcome depends only on ``(spec.seed, run_index)`` -- not on
  execution order, worker count, chunk size, or batch composition;
* the set-based reference implementations in :mod:`repro.variants` and
  :mod:`repro.asynchrony` consume the *same* coordinates through the
  same functions, so the equivalence matrices
  (``tests/variants/test_fastpath_equivalence.py``,
  ``tests/variants/test_scenario_fastpath_equivalence.py``) hold fast
  and reference runs bit-for-bit equal per variant.

Backends
--------
Variant runs execute only on the pure arc-mask stepper.  The numpy
frontier kernel and the double-cover oracle model the *deterministic*
synchronous process: the oracle in particular is a prediction of
amnesiac flooding's unique execution, which a stochastic,
step-granular or re-injected run is not, so variant requests never
route to them -- ``backend="oracle"``/``"numpy"`` with a variant is a
:class:`~repro.errors.ConfigurationError`, and automatic selection
(:func:`variant_backend`) always resolves to ``"pure"``.

Entry points
------------
:class:`VariantSpec` (build with :func:`thinning`,
:func:`bernoulli_loss`, :func:`k_memory`, :func:`periodic_injection`,
:func:`multi_message`, :func:`random_delay`,
:func:`dynamic_schedule`) plugs into ``FloodSpec(variant=spec)`` --
and so into every spec tier (``run_spec``, ``sweep_specs``,
``SweepPool.sweep_specs``, ``FloodService.query_spec``) -- and into
the kwargs ``fastpath.sweep`` and ``parallel_sweep``;
:func:`variant_survey` is the Monte-Carlo aggregation over a trial
batch.  :func:`run_variant` is the raw per-run dispatch the engine and
the worker pool call.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError
from repro.fastpath.indexed import IndexedGraph
from repro.fastpath.pure_backend import (
    _BYTE_BITS,
    Forward,
    _decode,
    _decoders,
    _memo_decode,
    flood,
)
from repro.fastpath.schedule import ArcSchedule
from repro.graphs.graph import Graph, Node
from repro.rng import (
    derive_key,
    mask_hold_split,
    round_key,
    slot_draw,
    survival_threshold,
)

THINNING = "thinning"
LOSS = "loss"
KMEMORY = "kmemory"
PERIODIC = "periodic"
MULTI = "multi_message"
DELAY = "random_delay"
DYNAMIC = "dynamic"

VARIANT_KINDS = (THINNING, LOSS, KMEMORY, PERIODIC, MULTI, DELAY, DYNAMIC)

VariantRawRun = Tuple[
    bool,  # terminated within budget
    List[int],  # per-round message counts (round 1 first)
    int,  # total messages
    Optional[List[List[int]]],  # per-round sender ids (None when not collected)
    Optional[List[List[int]]],  # per-node-id ascending receive rounds
    int,  # nodes that ever held the message (sources included)
]
"""The :data:`~repro.fastpath.pure_backend.RawRun` tuple plus a trailing
reached-node count (coverage is a headline variant statistic and too
cheap to recompute from full receive collection)."""


@dataclass(frozen=True)
class VariantSpec:
    """One variant of the flooding process, as a picklable value.

    ``kind`` selects the stepper; ``probability`` is the per-message
    *survival* probability of the ``thinning``/``loss`` kinds (the two
    share dynamics -- a dropped forward and a lost message are the same
    event in the synchronous model -- and differ only in how callers
    parameterise them) or the per-message *hold* probability of
    ``random_delay``; ``k`` is the memory window of ``kmemory``;
    ``period``/``injections`` parameterise ``periodic``; ``schedule``
    is the frozen :class:`~repro.fastpath.schedule.ArcSchedule` of
    ``dynamic``; ``seed`` owns the randomness (run ``i`` of a batch
    draws from the stream ``derive_key(seed, i)``; the deterministic
    kinds ignore it).

    Frozen and hashable: specs ride in pool task tuples and service
    micro-batch keys unchanged.  Build through :func:`thinning`,
    :func:`bernoulli_loss`, :func:`k_memory`,
    :func:`periodic_injection`, :func:`multi_message`,
    :func:`random_delay` or :func:`dynamic_schedule`.
    """

    kind: str
    probability: Optional[float] = None
    k: Optional[int] = None
    seed: int = 0
    period: Optional[int] = None
    injections: Optional[int] = None
    schedule: Optional[ArcSchedule] = None

    def __post_init__(self) -> None:
        if self.kind not in VARIANT_KINDS:
            raise ConfigurationError(
                f"unknown variant kind {self.kind!r}; expected one of "
                f"{VARIANT_KINDS}"
            )
        if self.kind == KMEMORY:
            if self.k is None or self.k < 0:
                raise ConfigurationError("kmemory requires k >= 0")
            self._reject_fields("probability", "period", "injections", "schedule")
        elif self.kind in (THINNING, LOSS):
            if self.probability is None or not 0.0 <= self.probability <= 1.0:
                raise ConfigurationError(
                    f"{self.kind} requires a survival probability in [0, 1]"
                )
            self._reject_fields("k", "period", "injections", "schedule")
        elif self.kind == DELAY:
            # Strict upper bound: p = 1 would hold everything forever
            # and the all-held fallback would degenerate into a
            # deterministic single-delivery schedule nobody asked for.
            if self.probability is None or not 0.0 <= self.probability < 1.0:
                raise ConfigurationError(
                    "random_delay requires a hold probability in [0, 1)"
                )
            self._reject_fields("k", "period", "injections", "schedule")
        elif self.kind == PERIODIC:
            if self.period is None or self.period < 1:
                raise ConfigurationError("periodic requires period >= 1")
            if self.injections is None or self.injections < 1:
                raise ConfigurationError("periodic requires injections >= 1")
            self._reject_fields("probability", "k", "schedule")
        elif self.kind == MULTI:
            self._reject_fields(
                "probability", "k", "period", "injections", "schedule"
            )
        else:  # DYNAMIC
            if not isinstance(self.schedule, ArcSchedule):
                raise ConfigurationError(
                    "dynamic requires an ArcSchedule (see "
                    "repro.variants.dynamic.export_arc_schedule)"
                )
            self._reject_fields("probability", "k", "period", "injections")

    def _reject_fields(self, *names: str) -> None:
        for name in names:
            if getattr(self, name) is not None:
                raise ConfigurationError(f"{self.kind} takes no {name}")

    @property
    def stochastic(self) -> bool:
        """Whether runs of this variant consume randomness."""
        return self.kind in (THINNING, LOSS, DELAY)

    def run_key(self, run_index: int) -> int:
        """The RNG stream key owned by run ``run_index`` of this spec."""
        return derive_key(self.seed, run_index)


def thinning(forward_probability: float, seed: int = 0) -> VariantSpec:
    """Probabilistic amnesiac flooding: forward each copy w.p. ``q``."""
    return VariantSpec(THINNING, probability=forward_probability, seed=seed)


def bernoulli_loss(loss_rate: float, seed: int = 0) -> VariantSpec:
    """Amnesiac flooding where each message is lost w.p. ``loss_rate``."""
    if not 0.0 <= loss_rate <= 1.0:
        raise ConfigurationError("loss_rate must be within [0, 1]")
    return VariantSpec(LOSS, probability=1.0 - loss_rate, seed=seed)


def k_memory(k: int) -> VariantSpec:
    """``k``-round memory windows (``k = 1`` is amnesiac flooding)."""
    return VariantSpec(KMEMORY, k=k)


def periodic_injection(period: int, injections: int = 3) -> VariantSpec:
    """The source re-floods every ``period`` rounds, ``injections`` times."""
    return VariantSpec(PERIODIC, period=period, injections=injections)


def multi_message() -> VariantSpec:
    """Every source floods its own distinct payload concurrently."""
    return VariantSpec(MULTI)


def random_delay(delay_probability: float, seed: int = 0) -> VariantSpec:
    """Oblivious asynchrony: hold each message w.p. ``delay_probability``.

    Step-granular: the budget counts asynchronous delivery steps, not
    synchronous rounds (an unset ``FloodSpec.max_rounds`` resolves to
    :func:`~repro.sync.engine.default_step_budget`).
    """
    return VariantSpec(DELAY, probability=delay_probability, seed=seed)


def dynamic_schedule(schedule: ArcSchedule) -> VariantSpec:
    """Amnesiac flooding over a time-varying topology.

    ``schedule`` is the arc-diff form of a dynamic graph; freeze any
    :class:`~repro.variants.dynamic.GraphSchedule` into one with
    :func:`repro.variants.dynamic.export_arc_schedule`.
    """
    return VariantSpec(DYNAMIC, schedule=schedule)


def variant_default_budget(variant: VariantSpec, graph: Graph) -> int:
    """The budget an unset ``max_rounds`` resolves to for a variant.

    The uniform budget rule, per granularity: the step-granular
    ``random_delay`` kind counts sub-round asynchronous steps and gets
    :func:`~repro.sync.engine.default_step_budget` (floored well above
    the round budget -- dense graphs are metastable at step
    granularity); every round-granular kind gets
    :func:`~repro.sync.engine.default_round_budget`.
    """
    from repro.sync.engine import default_round_budget, default_step_budget

    if variant.kind == DELAY:
        return default_step_budget(graph)
    return default_round_budget(graph)


def variant_backend(
    index: IndexedGraph, backend: Optional[str], spec: VariantSpec
) -> str:
    """Resolve the backend for a variant run: the pure stepper, always.

    Mirrors :func:`repro.fastpath.select_backend` for the variant
    lanes.  ``None`` auto-selects ``"pure"``; naming any other backend
    raises -- in particular the oracle, which predicts the
    deterministic process and therefore can never stand in for a
    stochastic (or non-amnesiac) execution.
    """
    return resolve_variant_backend(backend, spec)


def resolve_variant_backend(backend: Optional[str], spec: VariantSpec) -> str:
    """The index-free core of :func:`variant_backend`.

    Variant routing depends only on the names (the stepper is always
    the pure arc-mask loop), so request validation
    (:class:`~repro.api.spec.FloodSpec`) runs this without touching the
    CSR index.
    """
    if backend is None or backend == "pure":
        return "pure"
    if backend == "oracle":
        raise ConfigurationError(
            f"the double-cover oracle predicts the deterministic process; "
            f"{spec.kind!r} variant runs never route to it "
            f"(backend must be 'pure' or None)"
        )
    if backend == "numpy":
        raise ConfigurationError(
            f"the numpy kernel runs only the deterministic process; "
            f"{spec.kind!r} variant runs use backend='pure'"
        )
    raise ConfigurationError(
        f"unknown fastpath backend {backend!r} for variant {spec.kind!r}; "
        f"expected 'pure' or None"
    )


def run_variant(
    index: IndexedGraph,
    source_ids: Sequence[int],
    budget: int,
    spec: VariantSpec,
    run_key: int,
    collect_senders: bool = False,
    collect_receives: bool = False,
) -> VariantRawRun:
    """One variant flood on the arc-mask stepper; raw statistics tuple.

    ``run_key`` is the already-derived RNG stream key
    (:meth:`VariantSpec.run_key`); it is threaded explicitly so sharded
    callers can key runs by their *global* batch position.  Ignored by
    the deterministic kinds (``kmemory``, ``periodic``,
    ``multi_message``, ``dynamic``).
    """
    return _STEPPERS[spec.kind](
        index, source_ids, budget, spec, run_key, collect_senders, collect_receives
    )


def _reached(n: int, source_ids: Sequence[int]) -> bytearray:
    """A fresh reached-flag array with the sources marked."""
    reached = bytearray(n)
    for source in source_ids:
        reached[source] = 1
    return reached


def _amnesiac_forward(full_masks: List[int], reached: bytearray) -> Forward:
    """The complement rule of Definition 1.1, marking receivers reached."""

    def forward(
        touched: List[int], heard: List[int], masks: List[int], round_number: int
    ) -> List[int]:
        next_active: List[int] = []
        for receiver in touched:
            reached[receiver] = 1
            send = full_masks[receiver] & ~heard[receiver]
            heard[receiver] = 0
            if send:
                masks[receiver] = send
                next_active.append(receiver)
        return next_active

    return forward


def _run_stochastic(
    index: IndexedGraph,
    source_ids: Sequence[int],
    budget: int,
    spec: VariantSpec,
    run_key: int,
    collect_senders: bool,
    collect_receives: bool,
) -> VariantRawRun:
    """Survival-thinned amnesiac flooding (thinning and loss variants).

    Forward rule: the complement of the heard-mask, thinned through the
    counter-based draws of the *next* round before it enters the
    frontier (the sources' full masks are thinned by round 1's draws),
    so the arcs that exist in round ``r`` are exactly the messages
    *delivered* in round ``r`` -- the complement rule and the
    statistics then see only survivors, matching the reference fault
    model.
    """
    full_masks = index.full_masks
    offsets = index.offsets
    threshold = survival_threshold(spec.probability)
    reached = _reached(index.n, source_ids)
    masks = [0] * index.n
    active: List[int] = []
    rkey = round_key(run_key, 1)
    for source in source_ids:
        thinned = _thin_mask(offsets[source], full_masks[source], rkey, threshold)
        if thinned:
            masks[source] = thinned
            active.append(source)

    def forward(
        touched: List[int], heard: List[int], masks: List[int], round_number: int
    ) -> List[int]:
        rkey = round_key(run_key, round_number + 1)
        next_active: List[int] = []
        for receiver in touched:
            reached[receiver] = 1
            send = full_masks[receiver] & ~heard[receiver]
            heard[receiver] = 0
            if send:
                send = _thin_mask(offsets[receiver], send, rkey, threshold)
                if send:
                    masks[receiver] = send
                    next_active.append(receiver)
        return next_active

    raw = flood(
        index,
        masks,
        active,
        budget,
        forward,
        collect_senders,
        collect_receives,
        memoise=False,
    )
    return raw + (reached.count(1),)


def _thin_mask(base: int, mask: int, rkey: int, threshold: int) -> int:
    """Keep each set bit (arc ``base + position``) independently.

    Iterates low-to-high, but the kept set is order-free: each arc's
    draw is a pure function of its slot and the round key.
    """
    kept = 0
    position = 0
    while mask:
        if mask & 1 and slot_draw(rkey, base + position) < threshold:
            kept |= 1 << position
        mask >>= 1
        position += 1
    return kept


def _run_kmemory(
    index: IndexedGraph,
    source_ids: Sequence[int],
    budget: int,
    spec: VariantSpec,
    run_key: int,
    collect_senders: bool,
    collect_receives: bool,
) -> VariantRawRun:
    """``k``-memory flooding on per-node heard-mask windows.

    Forward rule: the complement of the *union* of the receiver's
    heard-masks over the last ``k`` rounds (``k = 1`` keeps only the
    current round -- amnesiac flooding, bit-identical to the pure
    backend; ``k = 0`` forgets even that and ping-pongs until the
    budget cuts it off).  Windows live in a sparse dict keyed by node
    id -- only nodes with history in range pay for it.
    """
    k = spec.k
    full_masks = index.full_masks
    reached = _reached(index.n, source_ids)
    masks = [0] * index.n
    active = [source for source in source_ids if full_masks[source]]
    for source in active:
        masks[source] = full_masks[source]
    windows: Dict[int, List[Tuple[int, int]]] = {}

    def forward(
        touched: List[int], heard: List[int], masks: List[int], round_number: int
    ) -> List[int]:
        next_active: List[int] = []
        for receiver in touched:
            reached[receiver] = 1
            avoid = 0
            if k:
                window = windows.setdefault(receiver, [])
                window.append((round_number, heard[receiver]))
                while window[0][0] <= round_number - k:
                    window.pop(0)
                for _, remembered in window:
                    avoid |= remembered
            heard[receiver] = 0
            send = full_masks[receiver] & ~avoid
            if send:
                masks[receiver] = send
                next_active.append(receiver)
        return next_active

    raw = flood(
        index,
        masks,
        active,
        budget,
        _amnesiac_forward(full_masks, reached) if k == 1 else forward,
        collect_senders,
        collect_receives,
        memoise=k == 1,
    )
    return raw + (reached.count(1),)


def _run_periodic(
    index: IndexedGraph,
    source_ids: Sequence[int],
    budget: int,
    spec: VariantSpec,
    run_key: int,
    collect_senders: bool,
    collect_receives: bool,
) -> VariantRawRun:
    """Periodic re-injection on per-node send masks.

    Mirrors :func:`repro.variants.periodic.periodic_injection_flood`
    round for round: injection ``i`` ORs the source's full out-mask
    into its pending sends at round ``1 + i * period`` (every round of
    the injection phase is counted, including empty ones -- the clock
    ticks whether or not messages fly); after the last injection the
    orbit is evolved to an exact verdict by configuration memoisation
    -- the key is the sorted ``(sender, mask)`` profile of the active
    nodes, one dict slot per distinct configuration -- under the
    settle budget (cut off only when settle round ``budget + 1`` would
    still send, the core rule).  ``len(round_counts)`` equals the
    reference's ``total_rounds`` in all three outcomes (terminated,
    limit cycle, cut off); a limit cycle reports ``terminated=False``
    exactly like the reference.  It keeps its own round loop rather than
    :func:`~repro.fastpath.pure_backend.flood`: the injection phase
    ticks with nothing in flight, and the settle phase stops on a
    repeated configuration.
    """
    if len(source_ids) != 1:
        raise ConfigurationError(
            f"the periodic variant re-injects from a single source; "
            f"got {len(source_ids)} sources"
        )
    source = source_ids[0]
    period, injections = spec.period, spec.injections
    full_masks = index.full_masks
    decoders = _decoders(index)
    n = index.n

    masks = [0] * n
    heard = [0] * n
    active: List[int] = []
    round_counts: List[int] = []
    sender_rounds: Optional[List[List[int]]] = [] if collect_senders else None
    receives: Optional[List[List[int]]] = (
        [[] for _ in range(n)] if collect_receives else None
    )
    reached = _reached(n, source_ids)
    total = 0

    def step(round_number: int) -> None:
        """Count, deliver and advance the pending send masks."""
        nonlocal active, total
        masks_l, heard_l, reached_l = masks, heard, reached
        count = 0
        touched: List[int] = []
        touch = touched.append
        for sender in active:
            mask = masks_l[sender]
            masks_l[sender] = 0
            decoder = decoders[sender]
            send_list = decoder.get(mask)
            if send_list is None:
                send_list = _memo_decode(index, decoder, sender, mask)
            count += len(send_list)
            for receiver, rbit in send_list:
                heard_mask = heard_l[receiver]
                if not heard_mask:
                    touch(receiver)
                    # Branchless reached marking; counted once at the end.
                    reached_l[receiver] = 1
                    if receives is not None:
                        receives[receiver].append(round_number)
                heard_l[receiver] = heard_mask | rbit
        round_counts.append(count)
        total += count
        if sender_rounds is not None:
            sender_rounds.append(sorted(active))
        next_active: List[int] = []
        for receiver in touched:
            send = full_masks[receiver] & ~heard_l[receiver]
            heard_l[receiver] = 0
            if send:
                masks_l[receiver] = send
                next_active.append(receiver)
        active = next_active

    def profile() -> FrozenSet[Tuple[int, int]]:
        """The configuration, as a canonical hashable key.

        A frozenset of ``(sender, mask)`` pairs: senders are distinct,
        so set equality is exactly configuration equality, with no sort
        over the (potentially graph-sized) active list.  The key is
        only hashed and compared, never iterated.
        """
        return frozenset((v, masks[v]) for v in active)

    last_injection = 1 + (injections - 1) * period
    for round_number in range(1, last_injection + 1):
        if (round_number - 1) % period == 0:
            if not masks[source] and full_masks[source]:
                active.append(source)
            masks[source] |= full_masks[source]
        step(round_number)

    seen: Dict[FrozenSet[Tuple[int, int]], int] = {profile(): 0}
    settle = 0
    terminated = True
    while active:
        if settle + 1 > budget:
            terminated = False
            break
        step(last_injection + settle + 1)
        settle += 1
        key = profile()
        if key in seen:
            terminated = False
            break
        seen[key] = settle

    return (
        terminated,
        round_counts,
        total,
        sender_rounds,
        receives,
        reached.count(1),
    )


def _run_multi(
    index: IndexedGraph,
    source_ids: Sequence[int],
    budget: int,
    spec: VariantSpec,
    run_key: int,
    collect_senders: bool,
    collect_receives: bool,
) -> VariantRawRun:
    """Concurrent distinct-payload floods: one plain flood per payload, one fold.

    Amnesia means payloads cannot interfere (the independence invariant
    of :mod:`repro.variants.multi_message`), so each source/payload runs
    the amnesiac forward rule on its own masks and the statistics
    superimpose: per-round counts add (payloads never collapse into one
    message -- they are distinct), senders and receive rounds union
    with per-round dedup, the run terminates when every payload does,
    and the combined length is the last round in which *any* payload
    still sent.  Bit-identical to
    :func:`~repro.variants.multi_message.concurrent_floods` of one
    payload per source.
    """
    full_masks = index.full_masks
    n = index.n
    reached = _reached(n, source_ids)
    forward = _amnesiac_forward(full_masks, reached)
    combined_counts: List[int] = []
    sender_sets: List[Set[int]] = []
    receive_sets: List[Set[int]] = [set() for _ in range(n)] if collect_receives else []
    total = 0
    terminated = True

    for source in source_ids:
        masks = [0] * n
        masks[source] = full_masks[source]
        active = [source] if full_masks[source] else []
        done, counts, messages, senders, receives = flood(
            index, masks, active, budget, forward, collect_senders, collect_receives
        )
        terminated = terminated and done
        total += messages
        combined_counts.extend([0] * (len(counts) - len(combined_counts)))
        for position, count in enumerate(counts):
            combined_counts[position] += count
        for position, ids in enumerate(senders or ()):
            if position == len(sender_sets):
                sender_sets.append(set())
            sender_sets[position].update(ids)
        for node, rounds in enumerate(receives or ()):
            receive_sets[node].update(rounds)

    return (
        terminated,
        combined_counts,
        total,
        [sorted(ids) for ids in sender_sets] if collect_senders else None,
        [sorted(rounds) for rounds in receive_sets] if collect_receives else None,
        reached.count(1),
    )


def _run_delay(
    index: IndexedGraph,
    source_ids: Sequence[int],
    budget: int,
    spec: VariantSpec,
    run_key: int,
    collect_senders: bool,
    collect_receives: bool,
) -> VariantRawRun:
    """Step-granular random-delay asynchrony on per-node send masks.

    The arc-mask form of :func:`repro.asynchrony.engine.run_async`
    under the counter-keyed delay adversary
    (:class:`repro.asynchrony.adversary.CounterDelayAdversary`, which
    consumes the *same* coordinates): each step draws
    ``slot_draw(round_key(run_key, step), slot)`` per in-transit arc
    and holds the arc iff the draw falls below
    ``survival_threshold(probability)``; if the coins held everything,
    the single arc with the smallest ``(draw, slot)`` is delivered so
    time progresses.  Delivered arcs apply the amnesiac rule (forward
    to the complement of this step's senders); forwards merge with held
    arcs by mask OR, exactly as the set union of
    :func:`~repro.asynchrony.configurations.apply_delivery`.
    ``round_counts`` holds per-*step* delivered-message counts, so
    ``len(round_counts)`` is the async run's step count.  Held arcs
    outlive the step, so this stepper keeps its own loop rather than
    :func:`~repro.fastpath.pure_backend.flood`.
    """
    offsets = index.offsets
    full_masks = index.full_masks
    n = index.n
    threshold = survival_threshold(spec.probability)

    masks = [0] * n
    heard = [0] * n
    queued = bytearray(n)
    active: List[int] = []
    reached = bytearray(n)
    reached_count = 0
    for source in source_ids:
        if not reached[source]:
            reached[source] = 1
            reached_count += 1
        if full_masks[source]:
            masks[source] = full_masks[source]
            active.append(source)

    step_counts: List[int] = []
    sender_rounds: Optional[List[List[int]]] = [] if collect_senders else None
    receives: Optional[List[List[int]]] = (
        [[] for _ in range(n)] if collect_receives else None
    )
    total = 0
    terminated = True

    for step_number in range(1, budget + 1):
        if not active:
            break
        rkey = round_key(run_key, step_number)
        # Draw per in-transit arc, splitting each sender's mask into a
        # held and a delivered half.  The forced-delivery fallback
        # tracks the global minimum (draw, slot) with strict
        # comparisons, so it is independent of iteration order.
        deliveries: List[Tuple[int, int]] = []
        best_draw = -1
        best_slot = -1
        best_sender = -1
        best_bit = 0
        for sender in active:
            mask = masks[sender]
            base = offsets[sender]
            held, position, draw = mask_hold_split(rkey, base, mask, threshold)
            slot = base + position
            if (
                best_draw < 0
                or draw < best_draw
                or (draw == best_draw and slot < best_slot)
            ):
                best_draw = draw
                best_slot = slot
                best_sender = sender
                best_bit = 1 << position
            delivered = mask & ~held
            masks[sender] = held
            if delivered:
                deliveries.append((sender, delivered))
        if not deliveries:
            masks[best_sender] ^= best_bit
            deliveries.append((best_sender, best_bit))

        count = 0
        touched: List[int] = []
        touch = touched.append
        owners: List[int] = []
        for sender, delivered in deliveries:
            owners.append(sender)
            send_list = _decode(index, sender, delivered)
            count += len(send_list)
            for receiver, rbit in send_list:
                if not heard[receiver]:
                    touch(receiver)
                    if not reached[receiver]:
                        reached[receiver] = 1
                        reached_count += 1
                    if receives is not None:
                        receives[receiver].append(step_number)
                heard[receiver] = heard[receiver] | rbit
        step_counts.append(count)
        total += count
        if sender_rounds is not None:
            sender_rounds.append(sorted(owners))
        for receiver in touched:
            send = full_masks[receiver] & ~heard[receiver]
            heard[receiver] = 0
            if send:
                masks[receiver] = masks[receiver] | send
        next_active: List[int] = []
        for node in active:
            if masks[node]:
                queued[node] = 1
                next_active.append(node)
        for node in touched:
            if masks[node] and not queued[node]:
                queued[node] = 1
                next_active.append(node)
        for node in next_active:
            queued[node] = 0
        active = next_active
    else:
        if active:
            terminated = False

    return (
        terminated,
        step_counts,
        total,
        sender_rounds,
        receives,
        reached_count,
    )


def _run_dynamic(
    index: IndexedGraph,
    source_ids: Sequence[int],
    budget: int,
    spec: VariantSpec,
    run_key: int,
    collect_senders: bool,
    collect_receives: bool,
) -> VariantRawRun:
    """Amnesiac flooding over an arc-diff schedule.

    Runs entirely in the *superset* graph's slot space: round ``r``
    delivers the pending sends (live by construction), and receivers
    forward to the complement of this round's senders masked by round
    ``r + 1``'s activation -- the arc-mask form of "forward over the
    next round's topology", matching
    :func:`repro.variants.dynamic.simulate_dynamic` round for round.
    The schedule's global round masks are split into per-node CSR
    blocks once per *distinct* mask (memoised for the run), so a
    round's topology costs one AND per forwarding node.  The spec's
    graph must share the superset's node set (ids then align, both
    being sorted-label orders).
    """
    schedule = spec.schedule
    sindex = IndexedGraph.of(schedule.graph)
    if sindex.labels != index.labels:
        raise ConfigurationError(
            "the dynamic variant's schedule must share the spec graph's "
            "node set (the superset graph adds edges, never nodes)"
        )
    full_masks = sindex.full_masks
    mask_at = schedule.mask_at
    split_by_mask: Dict[int, List[int]] = {}

    def live(round_number: int) -> List[int]:
        gmask = mask_at(round_number)
        split = split_by_mask.get(gmask)
        if split is None:
            split = _split_mask(sindex, gmask)
            split_by_mask[gmask] = split
        return split

    reached = _reached(sindex.n, source_ids)
    masks = [0] * sindex.n
    active: List[int] = []
    first_live = live(1)
    for source in source_ids:
        send = full_masks[source] & first_live[source]
        if send:
            masks[source] = send
            active.append(source)

    def forward(
        touched: List[int], heard: List[int], masks: List[int], round_number: int
    ) -> List[int]:
        next_live = live(round_number + 1)
        next_active: List[int] = []
        for receiver in touched:
            reached[receiver] = 1
            send = full_masks[receiver] & ~heard[receiver] & next_live[receiver]
            heard[receiver] = 0
            if send:
                masks[receiver] = send
                next_active.append(receiver)
        return next_active

    raw = flood(
        sindex, masks, active, budget, forward, collect_senders, collect_receives
    )
    return raw + (reached.count(1),)


def _split_mask(index: IndexedGraph, gmask: int) -> List[int]:
    """Split a global arc mask into per-node CSR-block send masks.

    Exports the big int to bytes once and walks the set bits with the
    byte table, so the cost is O(arcs / 8 + set bits) -- never the
    quadratic low-bit walk over the whole mask.
    """
    offsets = index.offsets
    out = [0] * index.n
    data = gmask.to_bytes((index.num_arcs + 7) // 8, "little")
    byte_bits = _BYTE_BITS
    node = 0
    for byte_index, byte in enumerate(data):
        if not byte:
            continue
        base = byte_index * 8
        for k in byte_bits[byte]:
            slot = base + k
            while slot >= offsets[node + 1]:
                node += 1
            out[node] |= 1 << (slot - offsets[node])
    return out


_STEPPERS = MappingProxyType(
    {
        THINNING: _run_stochastic,
        LOSS: _run_stochastic,
        KMEMORY: _run_kmemory,
        PERIODIC: _run_periodic,
        MULTI: _run_multi,
        DELAY: _run_delay,
        DYNAMIC: _run_dynamic,
    }
)
"""The stepper of each variant kind (``run_variant``'s dispatch)."""


# ----------------------------------------------------------------------
# Monte-Carlo aggregation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class VariantSummary:
    """Aggregate of a seeded trial batch of one variant.

    Field semantics follow the reference surveys
    (:class:`repro.variants.lossy.LossySummary`): rates and means are
    over *all* trials, terminated or not; ``coverage`` is the mean
    fraction of the source's component that ever held the message.
    """

    variant: VariantSpec
    trials: int
    termination_rate: float
    mean_rounds: float
    mean_messages: float
    coverage: float


def variant_survey(
    graph: Graph,
    source: Node,
    variant: VariantSpec,
    trials: int,
    max_rounds: Optional[int] = None,
    workers: Optional[int] = None,
    chunksize: Optional[int] = None,
) -> VariantSummary:
    """Monte-Carlo summary of a variant from one source, on the fast path.

    Trial ``i`` draws from the stream ``derive_key(variant.seed, i)``,
    so the summary is bit-identical for every ``workers`` /
    ``chunksize`` choice (the pool shards the batch; the keys do not
    move) and matches the counter-seeded reference surveys trial for
    trial.  ``workers=None`` auto-sizes exactly like
    :func:`repro.parallel.parallel_sweep`; a variant batch never floods
    word-packed, so each trial is one engine pass and the pool's floor
    (:data:`~repro.parallel.pool.MIN_PARALLEL_BATCH`) counts trials.
    """
    if trials < 1:
        raise ConfigurationError("trials must be >= 1")
    from repro.graphs.traversal import bfs_distances
    from repro.parallel import parallel_sweep

    component = len(bfs_distances(graph, source))
    runs = parallel_sweep(
        graph,
        [[source]] * trials,
        max_rounds=max_rounds,
        variant=variant,
        workers=workers,
        chunksize=chunksize,
    )
    terminated = 0
    rounds_total = 0
    messages_total = 0
    coverage_total = 0.0
    for run in runs:
        if run.terminated:
            terminated += 1
        rounds_total += run.termination_round
        messages_total += run.total_messages
        coverage_total += run.reached_count / component
    return VariantSummary(
        variant=variant,
        trials=trials,
        termination_rate=terminated / trials,
        mean_rounds=rounds_total / trials,
        mean_messages=messages_total / trials,
        coverage=coverage_total / trials,
    )
