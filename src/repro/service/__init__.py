"""Async flood-query serving over the sweep pool.

This package is the serving layer of the reproduction: it wraps the
multi-core sweep machinery (:mod:`repro.parallel`) behind an asyncio
front-end so many concurrent callers share warm workers, batch
naturally, and degrade gracefully under load.

* :class:`FloodService` -- the front-end: ``await
  service.query_spec(spec)`` / ``query_batch_specs(specs)`` on
  :class:`~repro.api.spec.FloodSpec` requests, micro-batching of
  concurrent requests,
  bounded-queue backpressure (:class:`QueueFull` or FIFO waiting,
  caller's choice), per-request round budgets and timeouts
  (:class:`QueryTimeout`), per-topology registration/caching, and
  backend resolution by the one rule every tier shares;
* :class:`MicroBatcher` -- the window/size coalescing policy;
* :class:`Router` -- the resolution hook: a one-line delegate to
  :func:`repro.fastpath.engine.resolve_backend` (variants to the pure
  stepper, ``backend=None`` to the frontier auto-selection);
* :mod:`repro.service.errors` -- the typed error family
  (:class:`ServiceError` and friends, all under
  :class:`repro.errors.ReproError`).

Every result is bit-identical to a direct serial
:func:`repro.fastpath.sweep_specs` of the same request, for every worker
count, batching window and interleaving -- the determinism contract
the sweep pool established, now held at the service boundary
(``tests/service/`` asserts it).
"""

from repro.service.batcher import MicroBatcher
from repro.service.errors import (
    QueryTimeout,
    QueueFull,
    ServiceClosed,
    ServiceError,
)
from repro.service.routing import Router
from repro.service.service import FloodService, ServiceStats

__all__ = [
    "FloodService",
    "MicroBatcher",
    "QueryTimeout",
    "QueueFull",
    "Router",
    "ServiceClosed",
    "ServiceError",
    "ServiceStats",
]
