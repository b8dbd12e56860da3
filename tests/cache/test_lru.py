"""ResultCache bound/eviction semantics and counter truthfulness.

The LRU is the memory tier of the content-addressed result cache: it
holds encoded blobs under ``digest:backend`` keys, bounded by entry
count *and* by byte size, and its counters feed ``CacheStats`` (and
through it the service stats), so eviction order and counter
arithmetic are pinned exactly.
"""

import pytest

from repro.cache import ResultCache


def key(i: int) -> str:
    return f"{i:064x}:pure"


class TestEntryBound:
    def test_evicts_least_recently_used_past_entry_bound(self):
        cache = ResultCache(max_entries=2, max_bytes=1 << 20)
        cache.put(key(1), b"one")
        cache.put(key(2), b"two")
        cache.put(key(3), b"three")
        assert key(1) not in cache
        assert key(2) in cache and key(3) in cache
        assert cache.stats().evictions == 1

    def test_get_refreshes_recency(self):
        cache = ResultCache(max_entries=2, max_bytes=1 << 20)
        cache.put(key(1), b"one")
        cache.put(key(2), b"two")
        assert cache.get(key(1)) == b"one"  # 1 is now most recent
        cache.put(key(3), b"three")
        assert key(2) not in cache
        assert key(1) in cache and key(3) in cache

    def test_overwrite_does_not_grow_entry_count(self):
        cache = ResultCache(max_entries=2, max_bytes=1 << 20)
        cache.put(key(1), b"aa")
        cache.put(key(1), b"bbbb")
        assert len(cache) == 1
        assert cache.size_bytes == 4
        assert cache.stats().evictions == 0


class TestByteBound:
    def test_evicts_past_byte_bound(self):
        cache = ResultCache(max_entries=100, max_bytes=10)
        cache.put(key(1), b"aaaa")
        cache.put(key(2), b"bbbb")
        cache.put(key(3), b"cccc")  # 12 bytes > 10: oldest goes
        assert key(1) not in cache
        assert cache.size_bytes == 8
        assert cache.stats().evictions == 1

    def test_byte_accounting_tracks_residents_exactly(self):
        cache = ResultCache(max_entries=100, max_bytes=100)
        cache.put(key(1), b"x" * 30)
        cache.put(key(2), b"y" * 50)
        assert cache.size_bytes == 80
        cache.put(key(1), b"z" * 10)  # overwrite shrinks
        assert cache.size_bytes == 60
        cache.clear()
        assert cache.size_bytes == 0 and len(cache) == 0

    def test_blob_larger_than_bound_is_never_resident(self):
        cache = ResultCache(max_entries=100, max_bytes=8)
        cache.put(key(1), b"way too large")
        assert key(1) not in cache
        assert cache.size_bytes == 0
        assert cache.stats().evictions == 1

    def test_bounds_must_be_positive(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)
        with pytest.raises(ValueError):
            ResultCache(max_bytes=0)


class TestCounters:
    def test_hit_miss_store_arithmetic(self):
        cache = ResultCache()
        assert cache.get(key(1)) is None
        cache.put(key(1), b"blob")
        assert cache.get(key(1)) == b"blob"
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
        assert stats.lookups == 2
        assert stats.hit_rate() == 0.5

    def test_idle_hit_rate_is_zero(self):
        assert ResultCache().stats().hit_rate() == 0.0

    def test_note_corrupt_rebooks_the_hit_as_a_miss(self):
        cache = ResultCache()
        cache.put(key(1), b"not a valid payload")
        assert cache.get(key(1)) is not None  # transient hit...
        cache.note_corrupt(key(1))  # ...the decoder rejected it
        stats = cache.stats()
        assert stats.hits == 0
        assert stats.misses == 1
        assert stats.corrupt == 1
        assert key(1) not in cache

    def test_note_coalesced_accumulates(self):
        cache = ResultCache()
        cache.note_coalesced()
        cache.note_coalesced(3)
        assert cache.stats().coalesced == 4

    def test_failed_store_write_admits_and_counts_nothing(self):
        class FailingStore:
            def load(self, key):
                return None

            def save(self, key, blob):
                raise OSError("no space left on the store")

            def delete(self, key):
                pass

        cache = ResultCache(store=FailingStore())
        with pytest.raises(OSError):
            cache.put(key(1), b"blob")
        assert key(1) not in cache
        assert cache.stats().stores == 0

    def test_stats_is_a_snapshot(self):
        cache = ResultCache()
        before = cache.stats()
        cache.put(key(1), b"blob")
        assert before.stores == 0
        assert cache.stats().stores == 1
