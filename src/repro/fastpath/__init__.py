"""Fast flooding backends over a CSR-indexed graph.

The reference simulators in :mod:`repro.core.amnesiac` manipulate sets
of hashable-node tuples, which is exact but caps sweeps at a few
thousand nodes.  This subsystem freezes a
:class:`~repro.graphs.graph.Graph` once into flat integer arrays
(:class:`IndexedGraph`) and runs the directed-edge frontier on one of
two engines:

* the **pure** backend (:mod:`repro.fastpath.pure_backend`) -- per-node
  integer bitmasks, no dependencies, O(messages) per round;
* the **numpy** backend (:mod:`repro.fastpath.numpy_backend`) -- a
  word-packed arc array with one bit per run, so a batch floods up to
  64 runs per O(arcs) round; used automatically when numpy is
  importable and the graph is large and dense enough
  (:data:`~repro.fastpath.engine.NUMPY_ARC_THRESHOLD` directed arcs,
  :data:`~repro.fastpath.engine.NUMPY_MIN_MEAN_DEGREE` mean degree);
  everything degrades gracefully to pure when numpy is absent.

Pass ``backend="pure"`` / ``"numpy"`` to pin an engine, or
``backend=None`` (the default) to auto-select one;
:func:`available_backends` reports what this process can run.  Both
engines are exact -- integer/boolean arithmetic only -- and the
equivalence-matrix tests (``tests/core/test_engine_equivalence.py``)
hold them bit-for-bit equal to the reference frontier simulator, the
message-passing engine and the double-cover oracle
(:mod:`repro.fastpath.oracle_backend`: one BFS over the implicit cover
predicts every statistic of a flood; a test reference, not a backend).
:mod:`repro.fastpath.bitset_oracle` answers termination rounds alone
from a word-packed cover BFS, 64 source sets per ``uint64`` word.

Entry points:

* :func:`sweep_specs` -- a homogeneous batch of
  :class:`~repro.api.spec.FloodSpec` requests, indexing amortised;
  :func:`resolve_batch` is its front half, shared with the worker
  pool, and :func:`run_spec` (behind
  :func:`repro.core.amnesiac.simulate`) resolves a batch of one
  through it;
* :func:`sweep` -- the kwargs form: :func:`batch_specs` turns the
  source sets into specs for :func:`sweep_specs` (powers the scaling
  benchmarks); :func:`repro.parallel.parallel_sweep` is its sharded
  multi-core form, built from the same specs;
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
    NUMPY_ARC_THRESHOLD,
    NUMPY_MIN_MEAN_DEGREE,
    IndexedRun,
    arc_mask_of,
    available_backends,
    batch_specs,
    configuration_of_mask,
    dispatch_batch,
    ensure_homogeneous_specs,
    evolve_arc_mask,
    resolve_backend,
    resolve_batch,
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
    "NUMPY_ARC_THRESHOLD",
    "NUMPY_MIN_MEAN_DEGREE",
    "ArcSchedule",
    "IndexedGraph",
    "IndexedRun",
    "VariantSpec",
    "VariantSummary",
    "arc_mask_of",
    "available_backends",
    "batch_specs",
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
    "resolve_batch",
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
