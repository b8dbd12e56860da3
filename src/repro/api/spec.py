"""``FloodSpec``: one declarative request object for every execution tier.

A flood runs on one of four tiers -- a single run
(``fastpath.run_spec``), a serial batch (``fastpath.sweep_specs``), the
worker pool (``SweepPool.sweep_specs``) and the query service
(``FloodService.query_spec``) -- and every capability (backends,
variants, per-request RNG keys) reaches all of them through
one request shape: a single frozen dataclass, validated **once** at
construction:

* :class:`FloodSpec` -- graph + sources + round budget + backend +
  :class:`~repro.fastpath.variants.VariantSpec` + RNG stream position
  + collection flags.  It is frozen,
  hashable and picklable, so the same object rides from the caller
  through the micro-batcher, the pool task queue and the worker
  processes without translation.
* :class:`BatchKey` -- the execution-relevant projection of a spec
  (everything that changes *how* a batch must run: budget, resolved
  backend, collection flags, variant).  Requests with equal batch keys
  may share a pool task or a service micro-batch; this object replaces
  the ad-hoc key tuples the pool and the service each used to build.
* :meth:`FloodSpec.from_scenario` -- the string scenario registry
  (``"lossy:0.1"``, ``"kmemory:2"``, ``"periodic:3,4"``,
  ``"random_delay:0.5"``, ``"dynamic:2"`` ...).  Every built-in
  scenario canonicalises into a ``VariantSpec`` (or the plain
  deterministic process) and executes on the arc-mask fast path; see
  :mod:`repro.api.scenarios`.

Validation errors are :class:`~repro.errors.ConfigurationError` (or
:class:`~repro.errors.NodeNotFoundError` for unknown sources) and always
name the offending field, so a spec that constructed successfully is
runnable on every tier.
"""

from __future__ import annotations

import hashlib
import operator
from dataclasses import dataclass, fields, replace
from typing import Iterable, Optional, Tuple

from repro.errors import ConfigurationError, NodeNotFoundError
from repro.fastpath.indexed import IndexedGraph
from repro.fastpath.variants import VariantSpec
from repro.graphs.graph import Graph, Node
from repro.sync.engine import default_round_budget

BACKEND_NAMES = ("pure", "numpy")
"""The concrete fast-path backend names a spec may pin, and a cache key carry."""

CACHE_MODES = ("use", "bypass", "refresh")
"""Cache policies a spec may carry (:mod:`repro.cache`).

``"use"`` (the default) serves a cached result when one exists and
stores fresh results; ``"bypass"`` never reads or writes the cache
(benchmarks measuring raw execution stay honest); ``"refresh"``
always executes and overwrites whatever the cache held.  The policy
deliberately does **not** participate in :meth:`FloodSpec.digest` --
it says how to treat the cache entry, not which entry the request
names."""

DIGEST_EXCLUDED = frozenset({"cache"})
"""The :class:`FloodSpec` fields deliberately absent from :meth:`FloodSpec.digest`.

Read by ``tests/api/test_spec_contracts.py``, which perturbs every
dataclass field: a field must change the digest, or be listed here
with its reason (and then must not change it).  ``cache`` is the
transport *policy* -- how to treat the cache entry, never which entry
the request names (see :data:`CACHE_MODES`); putting it in the digest
would split identical results across three cache addresses."""

BATCH_KEY_EXCLUDED = frozenset({"graph", "sources", "backend", "stream"})
"""Digest-participating fields deliberately absent from :meth:`FloodSpec.batch_key`.

Read by ``tests/api/test_spec_contracts.py``, which perturbs every
digest field: it must split the coalescing bucket (change
``batch_key()``), or be declared bucket-irrelevant here (and then must
not change it).  The reasons:

* ``graph`` / ``sources`` -- batching is *per graph entry* (the bucket
  key pairs the entry with the ``BatchKey``) and a batch is exactly a
  set of source lists sharing everything else, so neither belongs in
  the shared projection.
* ``backend`` -- reaches :class:`BatchKey` as the *resolved* backend
  parameter; the raw field still contains ``None`` (auto) after
  resolution decided.
* ``stream`` -- the per-request RNG position; requests on different
  streams batch together by design, each carrying its own
  ``run_key()`` into the pool."""


SHAPE_EXCLUDED = frozenset({"sources", "stream", "cache"})
"""The :class:`FloodSpec` fields in which the specs of one batch may differ.

Every other field is in :data:`SHAPE_FIELDS`: it changes how a batch
runs, so ``sweep_specs`` rejects a batch that mixes its values and
``FloodSession.sweep`` groups on it.  ``sources`` and ``stream`` are
per-run by design; ``cache`` is the per-request cache policy.  A new
field joins the shape unless it is listed here, and
``tests/api/test_spec_contracts.py`` perturbs every field to check
the split."""


def _integer_field(name: str, value: object) -> int:
    """``value`` as a plain ``int``, or a :class:`ConfigurationError`.

    Integer-likes (``numpy.int64``...) canonicalise through
    :func:`operator.index`, so equal specs carry equal digests; ``bool``
    and non-integral values (``2.0``, ``2.5``, ``"3"``) are rejected
    rather than silently truncated or ``repr``-split.
    """
    if isinstance(value, bool):
        raise ConfigurationError(f"{name} must be an integer, got bool")
    try:
        return operator.index(value)  # type: ignore[arg-type]
    except TypeError:
        raise ConfigurationError(
            f"{name} must be an integer, got {type(value).__name__}"
        ) from None


def checked_budget(max_rounds: Optional[int]) -> Optional[int]:
    """An explicit ``max_rounds`` as a plain ``int >= 1``; ``None`` as is.

    The one budget-validation rule: :class:`FloodSpec` applies it on
    construction and :func:`repro.fastpath.engine.batch_specs` applies
    it to an empty batch, which builds no spec to do so.  Resolving
    ``None`` to a default is the spec's job, because the default depends
    on the variant.
    """
    if max_rounds is None:
        return None
    if type(max_rounds) is not int:
        max_rounds = _integer_field("max_rounds", max_rounds)
    if max_rounds < 1:
        raise ConfigurationError("max_rounds must be >= 1")
    return max_rounds


@dataclass(frozen=True)
class BatchKey:
    """The execution-relevant projection of a :class:`FloodSpec`.

    Two requests with equal batch keys run identically apart from their
    source sets and RNG stream keys, so they may share a pool task and
    a service micro-batch.  The pool ships this object in its task
    tuples and the service keys its coalescing buckets on it -- one
    definition of "batchable together" instead of two hand-maintained
    key tuples.

    ``backend`` here is always a *resolved* concrete name (resolution has
    already happened); ``budget`` is the resolved round budget.
    """

    budget: int
    backend: str
    collect_senders: bool
    collect_receives: bool
    variant: Optional[VariantSpec] = None


@dataclass(frozen=True)
class FloodSpec:
    """One flood request, as a frozen, hashable, picklable value.

    Fields
    ------
    graph:
        The topology (immutable and hashable; the spec hashes with it).
    sources:
        Node labels holding the message in round 0.  Canonicalised at
        construction: validated against ``graph``, deduplicated in
        first-seen order, stored as a tuple.
    max_rounds:
        The round budget.  ``None`` resolves to
        :func:`~repro.sync.engine.default_round_budget` at
        construction, so equal specs always carry equal concrete
        budgets (the budget is part of the batch key).
    backend:
        ``None`` (auto: a frontier engine picked by
        :func:`~repro.fastpath.engine.select_backend`, on every tier)
        or one of :data:`BACKEND_NAMES`.  Validated at construction,
        including numpy availability and variant compatibility.
    variant:
        Optional :class:`~repro.fastpath.variants.VariantSpec` running
        the stochastic/memory stepper instead of the deterministic
        process.  Scenario strings (``"lossy:0.1"``) name one through
        :meth:`from_scenario`.
    stream:
        The RNG stream position of this request within
        ``variant.seed`` (the run executes on
        ``derive_key(variant.seed, stream)``).  Canonicalised to 0 for
        deterministic requests -- including the deterministic variant
        kinds (``kmemory``, ``periodic``, ``multi_message``,
        ``dynamic``), which consume no randomness -- so such specs
        differing only by ``stream`` batch (and cache) together.
    collect_senders / collect_receives:
        Per-round sender sets and per-node receive rounds are collected
        only on request (sweep-shaped work skips them for speed).
    cache:
        Cache policy for the content-addressed result cache, one of
        :data:`CACHE_MODES`.  Excluded from :meth:`digest` -- two specs
        differing only in policy name the same cached result.

    The class is a frozen dataclass: equality and ``hash()`` cover
    every field, so a spec is directly usable as a dict key, a service
    micro-batch key, or a pool task payload.  For *cross-process*
    pinning (Python's ``hash()`` of strings is salted per process) use
    :meth:`digest`.
    """

    graph: Graph
    sources: Tuple[Node, ...]
    max_rounds: Optional[int] = None
    backend: Optional[str] = None
    variant: Optional[VariantSpec] = None
    stream: int = 0
    collect_senders: bool = False
    collect_receives: bool = False
    cache: str = "use"

    def __post_init__(self) -> None:
        if not isinstance(self.graph, Graph):
            raise ConfigurationError(
                f"graph must be a repro Graph, got {type(self.graph).__name__}"
            )
        # Sources: validate against the graph and canonicalise to a
        # first-seen-ordered label tuple.  Deliberately index-free --
        # construction must stay O(sources), never O(graph): sweeps
        # build one spec per source set, and touching the CSR
        # index LRU here can cost a full graph-equality compare per
        # spec when an equal-but-distinct graph occupies the cache slot.
        seen = set()
        canonical = []
        for label in self.sources:
            if not self.graph.has_node(label):
                raise NodeNotFoundError(label)
            if label not in seen:
                seen.add(label)
                canonical.append(label)
        if not canonical:
            raise ConfigurationError("at least one source is required")
        object.__setattr__(self, "sources", tuple(canonical))
        # Integer fields canonicalise to a plain int (the exact-type
        # check keeps the common case to one comparison).
        budget = checked_budget(self.max_rounds)
        if budget is not self.max_rounds:
            object.__setattr__(self, "max_rounds", budget)
        if type(self.stream) is not int:
            object.__setattr__(self, "stream", _integer_field("stream", self.stream))
        if self.stream < 0:
            raise ConfigurationError("stream must be an int >= 0")
        if self.variant is not None and not isinstance(self.variant, VariantSpec):
            raise ConfigurationError(
                f"variant must be a VariantSpec, got {type(self.variant).__name__}"
            )
        # Budget: resolve None once so equal requests carry equal keys.
        # Variants own their budget granularity (random_delay counts
        # async steps).
        if self.max_rounds is None:
            if self.variant is not None:
                from repro.fastpath.variants import variant_default_budget

                budget = variant_default_budget(self.variant, self.graph)
            else:
                budget = default_round_budget(self.graph)
            object.__setattr__(self, "max_rounds", budget)
        self._validate_backend()
        if self.cache not in CACHE_MODES:
            raise ConfigurationError(
                f"cache must be one of {CACHE_MODES}, got {self.cache!r}"
            )
        if self.stream and (self.variant is None or not self.variant.stochastic):
            # Deterministic runs consume no randomness: canonicalise the
            # stream away so such specs batch (and hash) together.
            object.__setattr__(self, "stream", 0)

    def _validate_backend(self) -> None:
        """Backend-name validation with the engine's exact error texts.

        Index-free on purpose (see ``__post_init__``): the engines'
        name-level validators are split out so construction never
        builds a CSR index.
        """
        if self.backend is None:
            return
        if self.variant is not None:
            from repro.fastpath.variants import resolve_variant_backend

            resolve_variant_backend(self.backend, self.variant)
            return
        from repro.fastpath.engine import validate_backend_name

        validate_backend_name(self.backend)

    # ------------------------------------------------------------------
    # Constructors and derived views
    # ------------------------------------------------------------------

    @classmethod
    def from_scenario(
        cls,
        scenario: str,
        graph: Graph,
        sources: Iterable[Node],
        *,
        seed: int = 0,
        max_rounds: Optional[int] = None,
        stream: int = 0,
        collect_senders: bool = False,
        collect_receives: bool = False,
    ) -> "FloodSpec":
        """Build a spec from a registry scenario string.

        ``scenario`` is ``"name"`` or ``"name:arg[,arg...]"`` -- see
        :mod:`repro.api.scenarios` for the built-in names.  The string
        binds to a :class:`~repro.fastpath.variants.VariantSpec` (or to
        the plain process), so the result equals the hand-built spec.
        ``seed`` becomes the variant seed of the stochastic scenarios
        unless the string pins its own ``seed=``; the deterministic
        ones ignore it.
        """
        from repro.api.scenarios import bind_scenario

        plain = cls(
            graph=graph,
            sources=tuple(sources),
            max_rounds=max_rounds,
            stream=stream,
            collect_senders=collect_senders,
            collect_receives=collect_receives,
        )
        variant = bind_scenario(scenario, plain, seed)
        if variant is None:
            return plain
        # The variant's own budget and stream rules apply to the unset
        # budget and the stream the plain spec canonicalised away.
        return plain.replace(variant=variant, max_rounds=max_rounds, stream=stream)

    def shape(self) -> Tuple[object, ...]:
        """The values of :data:`SHAPE_FIELDS`: equal shapes batch together."""
        return _shape_of(self)

    def replace(self, **changes: object) -> "FloodSpec":
        """A copy with ``changes`` applied, re-validated at construction."""
        return replace(self, **changes)

    def index(self) -> IndexedGraph:
        """The (cached) CSR index of this spec's graph."""
        return IndexedGraph.of(self.graph)

    def source_ids(self) -> list:
        """The sources as CSR node ids (first-seen order, deduplicated)."""
        return self.index().resolve_sources(self.sources)

    def run_key(self) -> int:
        """The RNG stream key this request's run draws from (0 when
        deterministic): ``derive_key(variant.seed, stream)``."""
        if self.variant is None:
            return 0
        return self.variant.run_key(self.stream)

    def batch_key(self, resolved_backend: str) -> BatchKey:
        """The :class:`BatchKey` of this spec under a resolved backend."""
        assert self.max_rounds is not None  # resolved in __post_init__
        return BatchKey(
            budget=self.max_rounds,
            backend=resolved_backend,
            collect_senders=self.collect_senders,
            collect_receives=self.collect_receives,
            variant=self.variant,
        )

    def digest(self) -> str:
        """A process-independent content digest of this spec.

        ``hash()`` on a spec is salted per interpreter (string hashing),
        which is fine for dict keys but useless for pinning identity
        across workers or sessions.  The digest is a SHA-256 over a
        canonical structural encoding -- the graph through its memoised
        :meth:`~repro.graphs.graph.Graph.content_digest`, node labels
        through their ``repr`` -- so two processes building the same
        spec agree on it (the cross-process regression test pins this).
        It is the content address of the result cache
        (:mod:`repro.cache`); the ``cache`` policy field is therefore
        deliberately absent from the payload.
        """
        payload = "|".join(
            (
                "floodspec",
                self.graph.content_digest(),
                repr(self.sources),
                repr(self.max_rounds),
                repr(self.backend),
                repr(self.variant),
                repr(self.stream),
                repr(self.collect_senders),
                repr(self.collect_receives),
            )
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def __repr__(self) -> str:
        parts = [
            f"graph={self.graph!r}",
            f"sources={self.sources!r}",
            f"max_rounds={self.max_rounds}",
        ]
        for name in ("backend", "variant"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value!r}")
        if self.stream:
            parts.append(f"stream={self.stream}")
        for flag in ("collect_senders", "collect_receives"):
            if getattr(self, flag):
                parts.append(f"{flag}=True")
        if self.cache != "use":
            parts.append(f"cache={self.cache!r}")
        return f"FloodSpec({', '.join(parts)})"


SHAPE_FIELDS = tuple(
    field.name for field in fields(FloodSpec) if field.name not in SHAPE_EXCLUDED
)
"""The execution-relevant fields a spec batch shares (see :data:`SHAPE_EXCLUDED`)."""

_shape_of = operator.attrgetter(*SHAPE_FIELDS)
