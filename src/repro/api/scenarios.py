"""The string scenario registry behind ``FloodSpec.from_scenario``.

A *scenario* names one variant of the flooding process as a string --
``"flood"``, ``"lossy:0.1"``, ``"kmemory:2"``, ``"periodic:3,4"`` --
so callers (config files, service clients, sweep scripts) can request
any studied workload through the same declarative API without
importing variant constructors.

Every built-in scenario binds to a
:class:`~repro.fastpath.variants.VariantSpec` (or to the plain
deterministic process) and runs on the arc-mask fast path: after
canonicalisation a scenario spec *is* a hand-built spec, so it
batches, shards, serves and keys the result cache exactly like one.
The set-based engines the scenarios started life on stay in the tree
as **pinned references**: :func:`run_scenario` executes any spec on
its reference engine (``FloodSession.run(spec, reference=True)`` is
the public door), and the scenario equivalence matrix
(``tests/variants/test_scenario_fastpath_equivalence.py``) holds fast
and reference bit-for-bit equal per scenario.

Built-in scenario grammar (``name`` or ``name:arg[,arg|key=value...]``)::

    flood                      the deterministic process (Definition 1.1)
    thinning:Q[,seed=S]        forward each copy with probability Q
    lossy:RATE[,seed=S]        lose each message with probability RATE
    kmemory:K                  K-round memory windows (K=1 is amnesiac)
    periodic:PERIOD[,INJ]      source re-injects every PERIOD rounds,
                               INJ times (default 3); exactly one source
    multi_message              every source floods its own distinct payload
    random_delay:P[,seed=S]    oblivious per-message delay probability P
                               (step-granular: budget counts async steps)
    dynamic:FLIPS[,seed=S]     seeded edge-flip dynamics: FLIPS random
                               pair flips per round, frozen to an
                               arc-diff :class:`~repro.fastpath.schedule.ArcSchedule`

:func:`register_scenario` adds new names: a downstream scenario family
-- round-delayed amnesiac flooding, terminating-case variants -- arrives
as a :class:`~repro.fastpath.variants.VariantSpec` with an arc-mask
stepper plus a binder here, and then runs on every tier unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Type, TypeVar

from repro.api.spec import _integer_field
from repro.errors import ConfigurationError
from repro.fastpath.variants import (
    VariantSpec,
    bernoulli_loss,
    dynamic_schedule,
    k_memory,
    multi_message,
    periodic_injection,
    random_delay,
    thinning,
)

if TYPE_CHECKING:
    from repro.api.result import FloodResult
    from repro.api.spec import FloodSpec

# A binder parses one scenario's arguments against the plain spec of
# the request (canonical sources, resolved round budget, no variant)
# and the caller's seed, and returns the variant the request runs --
# or None for the plain deterministic flood.
Binder = Callable[
    [List[str], Dict[str, str], "FloodSpec", int], Optional[VariantSpec]
]
Runner = Callable[["FloodSpec"], "FloodResult"]

_Scalar = TypeVar("_Scalar", int, float)

# The scenario registry: written by register_scenario() (the built-ins
# below at import time, extensions explicitly at startup) and read-only
# during execution, so every process that imports this module sees the
# same table.  repro-lint REP007 flags module-level mutable state in
# worker-imported modules; this is the sanctioned registry exception.
# repro-lint: disable=REP007 -- write-once scenario registry, populated at import/startup; identical in every process
_BINDERS: Dict[str, Binder] = {}
# The pinned reference engines, keyed by *variant kind*: run_scenario
# executes any variant-backed spec on the set-based engine it was
# ported from, for the equivalence matrix and the reference=True door.
# repro-lint: disable=REP007 -- write-once scenario registry, populated at import/startup; identical in every process
_REFERENCES: Dict[str, Runner] = {}


def register_scenario(name: str, binder: Binder) -> None:
    """Register (or replace) a scenario name.

    ``binder(args, kwargs, plain_spec, seed)`` parses the string's
    positional and ``key=value`` arguments into the
    :class:`~repro.fastpath.variants.VariantSpec` the request runs, or
    ``None`` for the plain deterministic flood.  The variant's budget
    rule (:func:`~repro.fastpath.variants.variant_default_budget`)
    resolves an unset ``max_rounds``.
    """
    _BINDERS[name] = binder


def scenario_names() -> Tuple[str, ...]:
    """The registered scenario names, sorted."""
    return tuple(sorted(_BINDERS))


def _split(text: str) -> Tuple[str, List[str], Dict[str, str]]:
    """Parse ``name[:arg,arg,key=value,...]`` into its pieces."""
    if not isinstance(text, str) or not text:
        raise ConfigurationError("scenario must be a non-empty string")
    name, _, arg_text = text.partition(":")
    name = name.strip()
    args: List[str] = []
    kwargs: Dict[str, str] = {}
    if arg_text:
        for token in arg_text.split(","):
            token = token.strip()
            if not token:
                continue
            if "=" in token:
                key, _, value = token.partition("=")
                kwargs[key.strip()] = value.strip()
            else:
                args.append(token)
    return name, args, kwargs


def _scalar(
    token: str, kind: Type[_Scalar], scenario: str, what: str
) -> _Scalar:
    try:
        return kind(token)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"scenario {scenario!r}: {what} must be {kind.__name__}-valued, "
            f"got {token!r}"
        ) from None


def _seed_of(kwargs: Dict[str, str], scenario: str, seed: int) -> int:
    """The variant seed: a ``seed=`` written in the string beats ``seed``."""
    if "seed" in kwargs:
        return _scalar(kwargs.pop("seed"), int, scenario, "seed")
    return _integer_field("seed", seed)


def _reject_extras(
    args: List[str], kwargs: Dict[str, str], scenario: str
) -> None:
    if args or kwargs:
        raise ConfigurationError(
            f"scenario {scenario!r}: unexpected arguments "
            f"{args + sorted(kwargs)!r}"
        )


def bind_scenario(
    text: str, spec: "FloodSpec", seed: int
) -> Optional[VariantSpec]:
    """The variant a scenario string names, bound against ``spec``.

    Called from :meth:`FloodSpec.from_scenario` with the request's
    plain spec (canonical sources, resolved budget); ``None`` is the
    plain deterministic flood.
    """
    name, args, kwargs = _split(text)
    binder = _BINDERS.get(name)
    if binder is None:
        raise ConfigurationError(
            f"unknown scenario {name!r}; registered scenarios: "
            f"{', '.join(scenario_names())}"
        )
    return binder(args, kwargs, spec, seed)


def run_scenario(spec: "FloodSpec") -> "FloodResult":
    """Execute a spec on its pinned *reference* engine.

    The second opinion behind ``FloodSession.run(spec,
    reference=True)``: variant-backed specs (including every built-in
    scenario after canonicalisation) run on the set-based engine their
    stepper was ported from, and plain deterministic specs run on
    :func:`repro.core.amnesiac.simulate_reference`.  Results come back
    as :class:`~repro.api.result.FloodResult` with
    ``backend="reference:<name>"`` and the engine-native record in
    ``raw``.
    """
    if spec.variant is not None:
        reference = _REFERENCES.get(spec.variant.kind)
        if reference is None:
            raise ConfigurationError(
                f"variant kind {spec.variant.kind!r} has no pinned "
                f"reference engine"
            )
        return reference(spec)
    return _reference_flood(spec)


# ----------------------------------------------------------------------
# Built-in binders
# ----------------------------------------------------------------------


def _bind_flood(
    args: List[str], kwargs: Dict[str, str], spec: "FloodSpec", seed: int
) -> Optional[VariantSpec]:
    _reject_extras(args, kwargs, "flood")
    return None


def _bind_thinning(
    args: List[str], kwargs: Dict[str, str], spec: "FloodSpec", seed: int
) -> Optional[VariantSpec]:
    if len(args) != 1:
        raise ConfigurationError(
            "scenario 'thinning' takes exactly one argument: the forward "
            "probability (e.g. 'thinning:0.9')"
        )
    probability = _scalar(args[0], float, "thinning", "forward probability")
    seed = _seed_of(kwargs, "thinning", seed)
    _reject_extras([], kwargs, "thinning")
    return thinning(probability, seed=seed)


def _bind_lossy(
    args: List[str], kwargs: Dict[str, str], spec: "FloodSpec", seed: int
) -> Optional[VariantSpec]:
    if len(args) != 1:
        raise ConfigurationError(
            "scenario 'lossy' takes exactly one argument: the loss rate "
            "(e.g. 'lossy:0.1')"
        )
    rate = _scalar(args[0], float, "lossy", "loss rate")
    seed = _seed_of(kwargs, "lossy", seed)
    _reject_extras([], kwargs, "lossy")
    return bernoulli_loss(rate, seed=seed)


def _bind_kmemory(
    args: List[str], kwargs: Dict[str, str], spec: "FloodSpec", seed: int
) -> Optional[VariantSpec]:
    if len(args) != 1:
        raise ConfigurationError(
            "scenario 'kmemory' takes exactly one argument: the memory "
            "window k (e.g. 'kmemory:2')"
        )
    k = _scalar(args[0], int, "kmemory", "memory window k")
    _reject_extras([], kwargs, "kmemory")
    return k_memory(k)


def _bind_periodic(
    args: List[str], kwargs: Dict[str, str], spec: "FloodSpec", seed: int
) -> Optional[VariantSpec]:
    if not 1 <= len(args) <= 2:
        raise ConfigurationError(
            "scenario 'periodic' takes a period and an optional injection "
            "count (e.g. 'periodic:3,4')"
        )
    period = _scalar(args[0], int, "periodic", "period")
    injections = (
        _scalar(args[1], int, "periodic", "injections") if len(args) > 1 else 3
    )
    _reject_extras([], kwargs, "periodic")
    if period < 1:
        raise ConfigurationError("scenario 'periodic': period must be >= 1")
    if injections < 1:
        raise ConfigurationError(
            "scenario 'periodic': injections must be >= 1"
        )
    if len(spec.sources) != 1:
        raise ConfigurationError(
            f"scenario 'periodic' re-injects from a single source; "
            f"got {len(spec.sources)} sources"
        )
    return periodic_injection(period, injections)


def _bind_multi_message(
    args: List[str], kwargs: Dict[str, str], spec: "FloodSpec", seed: int
) -> Optional[VariantSpec]:
    _reject_extras(args, kwargs, "multi_message")
    return multi_message()


def _bind_random_delay(
    args: List[str], kwargs: Dict[str, str], spec: "FloodSpec", seed: int
) -> Optional[VariantSpec]:
    if len(args) != 1:
        raise ConfigurationError(
            "scenario 'random_delay' takes exactly one argument: the delay "
            "probability (e.g. 'random_delay:0.5')"
        )
    probability = _scalar(args[0], float, "random_delay", "delay probability")
    if not 0.0 <= probability < 1.0:
        raise ConfigurationError(
            "scenario 'random_delay': delay probability must be in [0, 1) "
            "(p = 1 would hold every message forever)"
        )
    seed = _seed_of(kwargs, "random_delay", seed)
    _reject_extras([], kwargs, "random_delay")
    return random_delay(probability, seed=seed)


def _bind_dynamic(
    args: List[str], kwargs: Dict[str, str], spec: "FloodSpec", seed: int
) -> Optional[VariantSpec]:
    if len(args) != 1:
        raise ConfigurationError(
            "scenario 'dynamic' takes exactly one argument: the edge "
            "flips per round (e.g. 'dynamic:2')"
        )
    flips = _scalar(args[0], int, "dynamic", "edge flips per round")
    if flips < 0:
        raise ConfigurationError(
            "scenario 'dynamic': edge flips per round must be >= 0"
        )
    seed = _seed_of(kwargs, "dynamic", seed)
    _reject_extras([], kwargs, "dynamic")
    from repro.variants.dynamic import EdgeFlipSchedule, export_arc_schedule

    # The frozen schedule's horizon must cover the run: round r
    # forwards over the round-(r+1) topology.
    assert spec.max_rounds is not None  # resolved on the plain spec
    schedule = EdgeFlipSchedule(spec.graph, flips, seed)
    return dynamic_schedule(export_arc_schedule(schedule, spec.max_rounds + 1))


# ----------------------------------------------------------------------
# Pinned reference runners (per variant kind)
# ----------------------------------------------------------------------
#
# Each runner executes a variant-backed spec on the set-based engine
# its arc-mask stepper was ported from and maps the native record into
# a FloodResult (record kept in ``raw``).  Imports are local: the
# reference modules pull in the sync/asynchrony engines, which this
# module must not load just to *parse* a scenario string.


def _sole_source(spec: "FloodSpec", kind: str):
    if len(spec.sources) != 1:
        raise ConfigurationError(
            f"the {kind} reference engine is single-source; "
            f"got {len(spec.sources)} sources"
        )
    return spec.sources[0]


def _reference_flood(spec: "FloodSpec") -> "FloodResult":
    from repro.api.result import FloodResult
    from repro.core.amnesiac import simulate_reference

    run = simulate_reference(spec.graph, spec.sources, max_rounds=spec.max_rounds)
    return FloodResult(
        spec=spec,
        backend="reference:flood",
        terminated=run.terminated,
        termination_round=run.termination_round,
        total_messages=run.total_messages,
        round_edge_counts=list(run.round_edge_counts),
        reached_count=len(run.nodes_reached()),
        raw=run,
    )


def _reference_thinning(spec: "FloodSpec") -> "FloodResult":
    from repro.api.result import FloodResult
    from repro.variants.probabilistic import probabilistic_flood

    variant = spec.variant
    assert variant is not None  # guarded by run_scenario
    run = probabilistic_flood(
        spec.graph,
        _sole_source(spec, "thinning"),
        variant.probability,
        seed=variant.seed,
        max_rounds=spec.max_rounds,
        trial_index=spec.stream,
    )
    return FloodResult(
        spec=spec,
        backend="reference:thinning",
        terminated=run.terminated,
        termination_round=run.termination_round,
        total_messages=run.total_messages,
        round_edge_counts=[],
        reached_count=len(run.nodes_reached),
        raw=run,
    )


def _reference_loss(spec: "FloodSpec") -> "FloodResult":
    from repro.api.result import FloodResult
    from repro.variants.lossy import lossy_flood

    variant = spec.variant
    assert variant is not None  # guarded by run_scenario
    # bernoulli_loss stores the *survival* probability; round() inside
    # survival_threshold absorbs the 1-ulp float round trip, so the
    # reconstructed rate draws the exact same thresholds.
    trace = lossy_flood(
        spec.graph,
        _sole_source(spec, "lossy"),
        1.0 - variant.probability,
        seed=variant.seed,
        max_rounds=spec.max_rounds,
        trial_index=spec.stream,
    )
    return FloodResult(
        spec=spec,
        backend="reference:lossy",
        terminated=trace.terminated,
        termination_round=trace.termination_round,
        total_messages=trace.total_messages(),
        round_edge_counts=trace.per_round_message_counts(),
        reached_count=len(trace.nodes_reached()),
        raw=trace,
    )


def _reference_kmemory(spec: "FloodSpec") -> "FloodResult":
    from repro.api.result import FloodResult
    from repro.variants.k_memory import k_memory_trace

    variant = spec.variant
    assert variant is not None  # guarded by run_scenario
    trace = k_memory_trace(
        spec.graph,
        _sole_source(spec, "kmemory"),
        variant.k,
        max_rounds=spec.max_rounds,
    )
    return FloodResult(
        spec=spec,
        backend="reference:kmemory",
        terminated=trace.terminated,
        termination_round=trace.termination_round,
        total_messages=trace.total_messages(),
        round_edge_counts=trace.per_round_message_counts(),
        reached_count=len(trace.nodes_reached()),
        raw=trace,
    )


def _reference_periodic(spec: "FloodSpec") -> "FloodResult":
    from repro.api.result import FloodResult
    from repro.variants.periodic import periodic_injection_flood

    variant = spec.variant
    assert variant is not None  # guarded by run_scenario
    run = periodic_injection_flood(
        spec.graph,
        _sole_source(spec, "periodic"),
        variant.period,
        variant.injections,
        max_rounds=spec.max_rounds,
    )
    return FloodResult(
        spec=spec,
        backend="reference:periodic",
        terminated=run.terminates,
        termination_round=run.total_rounds,
        total_messages=run.total_messages,
        round_edge_counts=list(run.round_message_counts),
        reached_count=None,
        raw=run,
    )


def _reference_multi_message(spec: "FloodSpec") -> "FloodResult":
    from repro.api.result import FloodResult
    from repro.variants.multi_message import concurrent_floods

    origins = {
        position: [source] for position, source in enumerate(spec.sources)
    }
    trace = concurrent_floods(spec.graph, origins, max_rounds=spec.max_rounds)
    return FloodResult(
        spec=spec,
        backend="reference:multi_message",
        terminated=trace.terminated,
        termination_round=trace.rounds_executed,
        total_messages=trace.total_messages(),
        round_edge_counts=trace.per_round_message_counts(),
        reached_count=len(trace.nodes_reached()),
        raw=trace,
    )


def _reference_random_delay(spec: "FloodSpec") -> "FloodResult":
    from repro.api.result import FloodResult
    from repro.asynchrony.adversary import CounterDelayAdversary
    from repro.asynchrony.engine import AsyncOutcome, run_async

    variant = spec.variant
    assert variant is not None  # guarded by run_scenario
    # spec.run_key() = derive_key(variant.seed, spec.stream): the exact
    # key the fast-path stepper draws from, so reference and fast runs
    # consume identical per-(step, arc) coordinates.
    adversary = CounterDelayAdversary(
        variant.probability, spec.run_key(), spec.index()
    )
    run = run_async(
        spec.graph,
        spec.sources,
        adversary,
        max_steps=spec.max_rounds,
        detect_cycles=False,
    )
    counts = [len(batch) for batch in run.deliveries]
    return FloodResult(
        spec=spec,
        backend="reference:random_delay",
        terminated=run.outcome is AsyncOutcome.TERMINATED,
        termination_round=run.steps,
        total_messages=sum(counts),
        round_edge_counts=counts,
        reached_count=None,
        raw=run,
    )


def _reference_dynamic(spec: "FloodSpec") -> "FloodResult":
    from repro.api.result import FloodResult
    from repro.variants.dynamic import simulate_dynamic

    variant = spec.variant
    assert variant is not None and variant.schedule is not None
    run = simulate_dynamic(
        variant.schedule.as_graph_schedule(),
        spec.sources,
        max_rounds=spec.max_rounds,
    )
    return FloodResult(
        spec=spec,
        backend="reference:dynamic",
        terminated=run.terminated,
        termination_round=run.termination_round,
        total_messages=run.total_messages,
        round_edge_counts=list(run.round_edge_counts),
        reached_count=len(run.nodes_reached()),
        raw=run,
    )


register_scenario("flood", _bind_flood)
register_scenario("thinning", _bind_thinning)
register_scenario("lossy", _bind_lossy)
register_scenario("kmemory", _bind_kmemory)
register_scenario("periodic", _bind_periodic)
register_scenario("multi_message", _bind_multi_message)
register_scenario("random_delay", _bind_random_delay)
register_scenario("dynamic", _bind_dynamic)

_REFERENCES["thinning"] = _reference_thinning
_REFERENCES["loss"] = _reference_loss
_REFERENCES["kmemory"] = _reference_kmemory
_REFERENCES["periodic"] = _reference_periodic
_REFERENCES["multi_message"] = _reference_multi_message
_REFERENCES["random_delay"] = _reference_random_delay
_REFERENCES["dynamic"] = _reference_dynamic
