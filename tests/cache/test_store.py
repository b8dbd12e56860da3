"""DirectoryStore round-trip, corruption-as-miss and write atomicity.

The persistent tier is a directory of digest-named blob files shared
by design between processes and sessions, so three properties are
load-bearing: a blob written is byte-identically read back (including
by a *different* store instance on the same directory), anything
unreadable or invalid degrades to a miss, and writes are rename-atomic
(no partially written file is ever visible under a live key).
"""

import os

import pytest

from repro.cache import CACHE_FORMAT_VERSION, DirectoryStore, ResultCache
from repro.errors import ConfigurationError

KEY = "ab" * 32 + ":numpy"


class TestRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        store = DirectoryStore(tmp_path)
        store.save(KEY, b"payload-bytes")
        assert store.load(KEY) == b"payload-bytes"

    def test_survives_the_store_instance(self, tmp_path):
        DirectoryStore(tmp_path).save(KEY, b"persistent")
        assert DirectoryStore(tmp_path).load(KEY) == b"persistent"

    def test_save_replaces_previous_value(self, tmp_path):
        store = DirectoryStore(tmp_path)
        store.save(KEY, b"old")
        store.save(KEY, b"new")
        assert store.load(KEY) == b"new"
        assert len(store) == 1

    def test_missing_key_is_none(self, tmp_path):
        assert DirectoryStore(tmp_path).load(KEY) is None

    def test_delete_is_idempotent(self, tmp_path):
        store = DirectoryStore(tmp_path)
        store.save(KEY, b"blob")
        store.delete(KEY)
        store.delete(KEY)
        assert store.load(KEY) is None

    def test_keys_lists_colon_form(self, tmp_path):
        store = DirectoryStore(tmp_path)
        store.save(KEY, b"blob")
        assert store.keys() == [KEY]

    def test_creates_root_directory(self, tmp_path):
        root = tmp_path / "nested" / "cache"
        DirectoryStore(root).save(KEY, b"blob")
        assert root.is_dir()


class TestKeyHygiene:
    @pytest.mark.parametrize(
        "bad", ["../escape", "a/b", "", "key with spaces", "null\x00byte"]
    )
    def test_rejects_non_filename_keys(self, tmp_path, bad):
        store = DirectoryStore(tmp_path)
        with pytest.raises(ConfigurationError):
            store.save(bad, b"blob")
        with pytest.raises(ConfigurationError):
            store.load(bad)


class TestAtomicity:
    def test_no_temporary_files_survive_a_save(self, tmp_path):
        store = DirectoryStore(tmp_path)
        for i in range(10):
            store.save(f"{i:064x}:pure", b"blob" * 100)
        leftovers = [p for p in os.listdir(tmp_path) if not p.endswith(".blob")]
        assert leftovers == []

    def test_failed_write_leaves_no_debris_and_no_entry(self, tmp_path):
        store = DirectoryStore(tmp_path)
        with pytest.raises(TypeError):
            # Fails inside write(), after the temp file exists: the
            # save must clean its temporary up and publish nothing.
            store.save(KEY, "not-bytes")  # type: ignore[arg-type]
        assert store.load(KEY) is None
        assert os.listdir(tmp_path) == []


class TestCorruptionDegradesToMiss:
    def _cached_session_roundtrip(self, tmp_path, mangle):
        """Write one real entry through the stack, mangle it, re-query."""
        from repro.api import FloodSession, FloodSpec
        from repro.graphs import cycle_graph

        spec = FloodSpec(graph=cycle_graph(24), sources=(0,))
        store = DirectoryStore(tmp_path)
        with FloodSession(workers=0, cache=ResultCache(store=store)) as warm:
            fresh = warm.run(spec)
        (path,) = list(tmp_path.glob("*.blob"))
        mangle(path)
        # A cold cache over the mangled store must fall back to
        # executing and still answer correctly.
        cache = ResultCache(store=store)
        with FloodSession(workers=0, cache=cache) as cold:
            again = cold.run(spec)
        assert again.round_edge_counts == fresh.round_edge_counts
        assert again.total_messages == fresh.total_messages
        stats = cache.stats()
        assert stats.hits == 0
        assert stats.corrupt == 1
        # ...and the fresh execution healed the store in passing.
        with FloodSession(workers=0, cache=ResultCache(store=store)) as healed:
            healed.run(spec)
            assert healed.cache_stats().store_hits == 1

    def test_truncated_blob_is_a_miss(self, tmp_path):
        self._cached_session_roundtrip(
            tmp_path, lambda p: p.write_bytes(p.read_bytes()[:7])
        )

    def test_garbage_blob_is_a_miss(self, tmp_path):
        self._cached_session_roundtrip(
            tmp_path, lambda p: p.write_bytes(b"\x80\x05garbage")
        )

    def test_foreign_version_is_a_miss(self, tmp_path):
        import pickle

        def bump_version(path):
            magic, _, backend, raw = pickle.loads(path.read_bytes())
            path.write_bytes(
                pickle.dumps((magic, CACHE_FORMAT_VERSION + 1, backend, raw))
            )

        self._cached_session_roundtrip(tmp_path, bump_version)
