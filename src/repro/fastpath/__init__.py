"""Fast flooding backends over a CSR-indexed graph.

The reference simulators in :mod:`repro.core.amnesiac` manipulate sets
of hashable-node tuples, which is exact but caps sweeps at a few
thousand nodes.  This subsystem freezes a
:class:`~repro.graphs.graph.Graph` once into flat integer arrays
(:class:`IndexedGraph`) and runs the directed-edge frontier on one of
two engines:

* the **pure** backend (:mod:`repro.fastpath.pure_backend`) -- per-node
  integer bitmasks, no dependencies, O(messages) per round;
* the **numpy** backend (:mod:`repro.fastpath.numpy_backend`) --
  vectorised boolean arc arrays, O(arcs) per round, used automatically
  when numpy is importable and the graph is large enough
  (:data:`~repro.fastpath.engine.NUMPY_ARC_THRESHOLD` directed arcs);
  everything degrades gracefully to pure when numpy is absent;
* the **oracle** backend (:mod:`repro.fastpath.oracle_backend`) -- no
  frontier at all: one BFS over the implicit double cover predicts the
  full statistics of a flood in O(n + m) total, independent of round
  count.  Never auto-selected: it is the shared-nothing cross-check of
  the frontier engines, requested by name with ``backend="oracle"``.
  Deterministic oracle batches of
  :data:`~repro.fastpath.engine.BITSET_MIN_BATCH` or more runs ride
  the word-packed bitset cover sweep
  (:mod:`repro.fastpath.bitset_oracle`): 64 source sets flood per
  ``uint64`` word pass, bit-identical to the per-source oracle.

Pass ``backend="pure"`` / ``"numpy"`` / ``"oracle"`` to pin an engine,
or ``backend=None`` (the default) to auto-select a frontier engine;
:func:`available_backends` reports what this process can run.  All
backends are exact -- integer/boolean arithmetic only -- and the
equivalence-matrix tests (``tests/core/test_engine_equivalence.py``)
hold them bit-for-bit equal to the reference frontier simulator and the
message-passing engine.

Entry points:

* :func:`run_spec` -- one flood from a
  :class:`~repro.api.spec.FloodSpec` (:func:`repro.core.amnesiac.simulate`
  delegates here);
* :func:`sweep` -- many floods over one graph, indexing amortised,
  light statistics (powers ``all_pairs_termination`` and the scaling
  benchmarks); :func:`repro.parallel.parallel_sweep` is its sharded
  multi-core form;
* :func:`step_arc_mask` / :func:`evolve_arc_mask` -- arbitrary initial
  configurations packed into arc bitmasks (powers the
  initial-conditions census);
* :func:`resolve_backend` -- the one backend-resolution rule every
  tier applies: :func:`variant_backend` for variants, else
  :func:`select_backend`, for single runs and batches alike;
* :class:`VariantSpec` (:func:`thinning` / :func:`bernoulli_loss` /
  :func:`k_memory` / :func:`periodic_injection` / :func:`multi_message`
  / :func:`random_delay` / :func:`dynamic_schedule`) and
  :func:`variant_survey` -- arc-mask steppers for every built-in
  process variant with counter-based per-(run, round) randomness,
  pluggable into ``sweep``/``parallel_sweep``/the service via
  ``variant=`` (:mod:`repro.fastpath.variants`); dynamic topologies
  travel as the arc-diff :class:`ArcSchedule` format
  (:mod:`repro.fastpath.schedule`).
"""

from repro.fastpath.engine import (
    BITSET_MIN_BATCH,
    NUMPY_ARC_THRESHOLD,
    NUMPY_MIN_MEAN_DEGREE,
    ORACLE,
    IndexedRun,
    arc_mask_of,
    available_backends,
    batch_key_of,
    configuration_of_mask,
    dispatch_batch,
    ensure_homogeneous_specs,
    evolve_arc_mask,
    resolve_backend,
    run_spec,
    select_backend,
    step_arc_mask,
    sweep,
    sweep_specs,
)
from repro.fastpath.indexed import IndexedGraph
from repro.fastpath.schedule import ArcSchedule
from repro.fastpath.variants import (
    VariantSpec,
    VariantSummary,
    bernoulli_loss,
    dynamic_schedule,
    k_memory,
    multi_message,
    periodic_injection,
    random_delay,
    thinning,
    variant_backend,
    variant_default_budget,
    variant_survey,
)

__all__ = [
    "BITSET_MIN_BATCH",
    "NUMPY_ARC_THRESHOLD",
    "NUMPY_MIN_MEAN_DEGREE",
    "ORACLE",
    "ArcSchedule",
    "IndexedGraph",
    "IndexedRun",
    "VariantSpec",
    "VariantSummary",
    "arc_mask_of",
    "available_backends",
    "batch_key_of",
    "bernoulli_loss",
    "configuration_of_mask",
    "dispatch_batch",
    "dynamic_schedule",
    "ensure_homogeneous_specs",
    "evolve_arc_mask",
    "k_memory",
    "multi_message",
    "periodic_injection",
    "random_delay",
    "resolve_backend",
    "run_spec",
    "select_backend",
    "step_arc_mask",
    "sweep",
    "sweep_specs",
    "thinning",
    "variant_backend",
    "variant_default_budget",
    "variant_survey",
]
