"""``repro.api``: one declarative request object across every tier.

The facade over the four execution tiers that grew up around the
reproduction -- serial engine, batch sweep, sharded pool, async
service:

* :class:`~repro.api.spec.FloodSpec` -- a frozen, hashable, picklable
  request (graph + sources + budget + backend + variant + RNG stream +
  collection flags), validated once at construction;
* :class:`~repro.api.spec.BatchKey` -- the execution projection of a
  spec; the pool's task payload and the service's micro-batch key;
* :class:`~repro.api.result.FloodResult` -- the unified answer shape
  (fast-path runs and set-based reference records alike);
* :class:`~repro.api.session.FloodSession` -- ``run(spec)`` /
  ``sweep(specs)`` / ``await aquery(spec)``, planning serial, pooled or
  service execution from the spec alone;
* the scenario registry (:mod:`repro.api.scenarios`,
  :meth:`FloodSpec.from_scenario`) -- ``"lossy:0.1"``, ``"kmemory:2"``,
  ``"periodic:3,4"`` ... as nameable workloads, each bound to a variant
  at construction, so a scenario spec is a plain variant spec.

Every tier takes a spec: ``fastpath.run_spec`` / ``sweep_specs``,
``SweepPool.sweep_specs`` and ``FloodService.query_spec`` /
``query_batch_specs``.  The kwargs conveniences that remain
(``core.simulate``, ``fastpath.sweep``, ``parallel_sweep``) build
specs or batch keys and ride the same pipeline.

This ``__init__`` keeps its imports light on purpose: ``spec`` and
``result`` load eagerly (the engines need them), while the
session and scenario modules -- which pull in the pool, the service
and the reference variants -- resolve lazily through PEP 562 so
importing :mod:`repro.fastpath` stays cycle-free.
"""

from types import MappingProxyType
from typing import Any, List

from repro.api.result import FloodResult
from repro.api.spec import BACKEND_NAMES, BatchKey, FloodSpec

# Immutable on purpose (REP007): this is a worker-imported module and
# the lazy-resolution table is pure routing data, not process state.
_LAZY = MappingProxyType(
    {
        "FloodSession": ("repro.api.session", "FloodSession"),
        "ExecutionPlan": ("repro.api.session", "ExecutionPlan"),
        "register_scenario": ("repro.api.scenarios", "register_scenario"),
        "scenario_names": ("repro.api.scenarios", "scenario_names"),
        "run_scenario": ("repro.api.scenarios", "run_scenario"),
        "CacheStats": ("repro.cache", "CacheStats"),
        "DirectoryStore": ("repro.cache", "DirectoryStore"),
        "ResultCache": ("repro.cache", "ResultCache"),
    }
)

__all__ = [
    "BACKEND_NAMES",
    "BatchKey",
    "CacheStats",
    "DirectoryStore",
    "ExecutionPlan",
    "FloodResult",
    "FloodSession",
    "FloodSpec",
    "ResultCache",
    "register_scenario",
    "run_scenario",
    "scenario_names",
]


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__() -> List[str]:
    return sorted(__all__)
