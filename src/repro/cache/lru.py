"""The in-process LRU tier of the result cache.

:class:`ResultCache` maps content-address keys
(:func:`~repro.cache.keys.result_cache_key`) to *encoded* result blobs
(:mod:`repro.cache.keys`), bounded both by entry count and by total
byte size, with least-recently-used eviction.  An optional persistent
:class:`~repro.cache.store.CacheStore` sits behind the memory tier:
misses fall through to it, hits promote back into memory, and stores
write through -- so a warm directory survives the process and a second
session starts hot.

The cache is a passive value store: it never executes anything and
never decodes what it holds (the codec lives in
:mod:`repro.cache.keys`; the service and session decode at the edge).
All operations take an internal lock, so one cache may be shared
between a synchronous :class:`~repro.api.session.FloodSession` and the
asyncio :class:`~repro.service.service.FloodService` it spawns.

Counters are plain attributes snapshotted by :meth:`ResultCache.stats`
into a :class:`CacheStats` value: ``hits``/``misses`` count lookups
that served (or failed to serve) a *valid* result, ``evictions`` counts
LRU displacement, ``coalesced`` counts requests that joined an
in-flight execution instead of starting their own (incremented by the
service's future table), ``store_hits`` counts the subset of hits
filled from the persistent tier, and ``corrupt`` counts entries that
decoded invalid and were discarded (each such lookup is re-booked as a
miss, so hit/miss arithmetic stays truthful).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.cache.store import CacheStore

DEFAULT_MAX_ENTRIES = 4096
"""Default entry bound of a :class:`ResultCache`."""

DEFAULT_MAX_BYTES = 64 * 1024 * 1024
"""Default byte bound of a :class:`ResultCache` (64 MiB of blobs)."""


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of a :class:`ResultCache`'s counters."""

    hits: int
    misses: int
    evictions: int
    coalesced: int
    stores: int
    store_hits: int
    corrupt: int
    entries: int
    size_bytes: int

    @property
    def lookups(self) -> int:
        """Total lookups that resolved (hits plus misses)."""
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when idle)."""
        total = self.lookups
        return self.hits / total if total else 0.0


class ResultCache:
    """A byte- and entry-bounded LRU over encoded result blobs.

    Parameters
    ----------
    max_entries:
        Upper bound on resident entries; the least recently used entry
        is evicted past it.
    max_bytes:
        Upper bound on the summed size of resident blobs.  A single
        blob larger than the whole bound is never admitted (it is
        counted as an immediate eviction, and still written through to
        the store, which has no size bound).
    store:
        Optional persistent tier behind the memory tier.  ``get`` falls
        through to it on memory misses and promotes what it finds;
        ``put`` writes through.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
        store: Optional[CacheStore] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.store = store
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, bytes]" = OrderedDict()
        self._size_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.coalesced = 0
        self.stores = 0
        self.store_hits = 0
        self.corrupt = 0

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[bytes]:
        """The blob under ``key``, or ``None`` (a miss).

        Checks the memory tier first (refreshing recency), then the
        persistent store; a store hit is promoted into memory.  The
        caller decodes the blob -- on an invalid decode it must call
        :meth:`note_corrupt` so the entry is dropped and the lookup is
        re-booked as a miss.
        """
        with self._lock:
            blob = self._entries.get(key)
            if blob is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return blob
            if self.store is not None:
                blob = self.store.load(key)
                if blob is not None:
                    self._admit(key, blob)
                    self.hits += 1
                    self.store_hits += 1
                    return blob
            self.misses += 1
            return None

    def put(self, key: str, blob: bytes) -> None:
        """Insert (or overwrite) ``key`` and write through to the store.

        The store write comes first: a failing ``save`` raises before
        the entry is admitted or counted.
        """
        with self._lock:
            if self.store is not None:
                self.store.save(key, blob)
            self._admit(key, blob)
            self.stores += 1

    def note_corrupt(self, key: str) -> None:
        """Record that ``key``'s blob failed to decode; drop it everywhere.

        Re-books the lookup that surfaced the corruption as a miss
        (``hits -= 1; misses += 1``), so ``hits`` keeps meaning "served
        a valid result".
        """
        with self._lock:
            self._discard(key)
            if self.store is not None:
                self.store.delete(key)
            self.corrupt += 1
            if self.hits > 0:
                self.hits -= 1
            self.misses += 1

    def note_coalesced(self, joined: int = 1) -> None:
        """Record ``joined`` requests that attached to an in-flight run."""
        with self._lock:
            self.coalesced += joined

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def size_bytes(self) -> int:
        """Summed size of the resident blobs."""
        with self._lock:
            return self._size_bytes

    def stats(self) -> CacheStats:
        """Snapshot the counters into a :class:`CacheStats` value."""
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                coalesced=self.coalesced,
                stores=self.stores,
                store_hits=self.store_hits,
                corrupt=self.corrupt,
                entries=len(self._entries),
                size_bytes=self._size_bytes,
            )

    def clear(self) -> None:
        """Drop every resident entry (counters and the store are kept)."""
        with self._lock:
            self._entries.clear()
            self._size_bytes = 0

    # ------------------------------------------------------------------
    # Internals (lock held)
    # ------------------------------------------------------------------

    def _admit(self, key: str, blob: bytes) -> None:
        self._discard(key)
        if len(blob) > self.max_bytes:
            # Never resident, but the displacement is made visible.
            self.evictions += 1
            return
        self._entries[key] = blob
        self._size_bytes += len(blob)
        while (
            len(self._entries) > self.max_entries
            or self._size_bytes > self.max_bytes
        ):
            evicted_key, evicted_blob = self._entries.popitem(last=False)
            self._size_bytes -= len(evicted_blob)
            self.evictions += 1

    def _discard(self, key: str) -> None:
        blob = self._entries.pop(key, None)
        if blob is not None:
            self._size_bytes -= len(blob)
