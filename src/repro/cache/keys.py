"""Cache keys and the versioned result codec.

The content-addressed result cache stores *encoded* runs -- compact
pickle blobs of the backend raw-statistics tuple -- rather than live
:class:`~repro.fastpath.engine.IndexedRun` objects.  Storing bytes buys
three properties at once:

* **Mutation safety.**  Every hit decodes a fresh private copy, so a
  caller mutating ``round_edge_counts`` on a served result can never
  poison the entry behind it.
* **Exact accounting.**  The LRU's byte bound measures what is actually
  held, not a guess at object graph size.
* **Store transparency.**  The same blob that sits in memory is what a
  :class:`~repro.cache.store.CacheStore` persists, so the memory tier
  and the persistent tier cannot encode differently.

Key discipline
--------------
The cache key is ``f"{spec.digest()}:{resolved_backend}"``.  Every
tier resolves a spec's backend with the one rule
(:func:`~repro.fastpath.engine.resolve_backend`), so ``run(spec)``,
``sweep([spec])`` and the service address the same entry for the same
spec.  The resolved name still joins the key because ``backend=None``
resolution depends on the process as well as the spec (numpy must be
importable to be chosen), and a cached result reports the backend that
produced it: a persistent store shared by processes that resolve
differently keeps one entry per backend instead of serving one
process's label to the other.
Stochastic specs are safe automatically: ``digest()`` already covers
``(variant.seed, stream)``, so a different stream is a different
address, never a false hit.

The payload is version-stamped (:data:`CACHE_MAGIC`,
:data:`CACHE_FORMAT_VERSION`) and :func:`decode_run` answers ``None``
for *anything* it cannot fully validate -- truncated pickles, foreign
magic, format bumps, shape drift -- so corruption in a persistent store
degrades to a miss, never to a wrong result.  Blobs are only ever
decoded from the process's own cache tiers (a local directory the user
configured), which is the trust boundary ``pickle`` requires.
"""

from __future__ import annotations

import pickle
from typing import Optional, Tuple

from repro.api.spec import FloodSpec
from repro.cache.lru import ResultCache
from repro.fastpath.engine import IndexedRun, raw_run_of, wrap_raw_run
from repro.fastpath.indexed import IndexedGraph

CACHE_MAGIC = "repro-flood-cache"
"""Leading marker of every encoded payload; foreign blobs fail fast."""

CACHE_FORMAT_VERSION = 2
"""Bump on any change to the encoded payload shape or the key scheme.

Version 2: ``FloodSpec.probe`` left the spec digest, and ``backend=None``
resolves to a frontier engine on every tier.

Entries written by another version decode to ``None`` (a miss), so a
persistent store survives format evolution without a migration step.
"""

_BACKEND_NAMES = ("pure", "numpy", "oracle")


def result_cache_key(spec: FloodSpec, resolved_backend: str) -> str:
    """The content address of ``spec``'s result under a resolved backend."""
    return f"{spec.digest()}:{resolved_backend}"


def encode_run(run: IndexedRun) -> bytes:
    """Encode a run into a self-describing, version-stamped blob."""
    payload = (
        CACHE_MAGIC,
        CACHE_FORMAT_VERSION,
        run.backend,
        raw_run_of(run),
    )
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def _validate_raw(raw: object) -> Optional[Tuple]:
    """Shape-check a decoded raw tuple; ``None`` on any mismatch."""
    if not isinstance(raw, tuple) or len(raw) not in (5, 6):
        return None
    terminated, round_counts, total, sender_ids, receives = raw[:5]
    if not isinstance(terminated, bool):
        return None
    if not isinstance(round_counts, list):
        return None
    if not all(isinstance(count, int) for count in round_counts):
        return None
    if not isinstance(total, int):
        return None
    for collected in (sender_ids, receives):
        if collected is None:
            continue
        if not isinstance(collected, list):
            return None
        if not all(isinstance(inner, list) for inner in collected):
            return None
    if len(raw) == 6 and not isinstance(raw[5], int):
        return None
    return raw


def decode_run(
    blob: bytes,
    spec: FloodSpec,
    index: Optional[IndexedGraph] = None,
) -> Optional[IndexedRun]:
    """Decode a cached blob back into an :class:`IndexedRun` for ``spec``.

    Rehydration goes through :func:`~repro.fastpath.engine.wrap_raw_run`
    -- the same funnel every fresh backend result takes -- against the
    spec's own (memoised) CSR index, so a cached result is
    indistinguishable from a freshly computed one, including the
    identity of its ``index`` object.  Returns ``None`` when the blob
    is not a valid current-version payload (corruption is a miss).
    """
    try:
        payload = pickle.loads(blob)
    except Exception:
        return None
    if not isinstance(payload, tuple) or len(payload) != 4:
        return None
    magic, version, backend, raw = payload
    if magic != CACHE_MAGIC or version != CACHE_FORMAT_VERSION:
        return None
    if backend not in _BACKEND_NAMES:
        return None
    checked = _validate_raw(raw)
    if checked is None:
        return None
    if index is None:
        index = spec.index()
    source_ids = index.resolve_sources(spec.sources)
    return wrap_raw_run(index, source_ids, backend, checked, spec.variant)


def lookup_run(
    cache: ResultCache,
    key: str,
    spec: FloodSpec,
    index: Optional[IndexedGraph] = None,
) -> Optional[IndexedRun]:
    """The stored run under ``key``, decoded for ``spec``; ``None`` on a miss.

    The one cache-read funnel of the session and the service: a blob
    that fails to decode is booked with
    :meth:`~repro.cache.lru.ResultCache.note_corrupt` and answered as a
    miss, so corruption never reaches a caller.
    """
    blob = cache.get(key)
    if blob is None:
        return None
    run = decode_run(blob, spec, index)
    if run is None:
        cache.note_corrupt(key)
    return run
