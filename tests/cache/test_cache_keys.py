"""Cache-key discipline and codec round-trip fidelity.

The content address must be process-stable (the whole point of the
digest), distinguish everything that can change a result -- including
the *resolved* backend and, for stochastic specs, the (seed, stream)
pair -- and ignore the one field that must not name a different entry:
the cache policy itself.  The codec must round-trip every collected
field bit-identically and reject anything it cannot validate.
"""

import dataclasses
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import FloodSpec
from repro.cache import (
    CACHE_FORMAT_VERSION,
    CACHE_MAGIC,
    decode_run,
    encode_run,
    result_cache_key,
)
from repro.fastpath import thinning
from repro.fastpath.engine import run_spec
from repro.fastpath.numpy_backend import HAS_NUMPY
from repro.graphs import cycle_graph, paper_triangle

SRC = str(Path(__file__).resolve().parents[2] / "src")


def identical(a, b) -> bool:
    return (
        a.terminated == b.terminated
        and a.termination_round == b.termination_round
        and a.total_messages == b.total_messages
        and a.round_edge_counts == b.round_edge_counts
        and a.sender_ids == b.sender_ids
        and a.receive_rounds_by_id == b.receive_rounds_by_id
        and a.reached_count == b.reached_count
        and a.backend == b.backend
        and a.sources == b.sources
    )


class TestKeyDiscipline:
    def test_key_is_digest_plus_resolved_backend(self):
        spec = FloodSpec(graph=cycle_graph(9), sources=(0,))
        assert result_cache_key(spec, "pure") == spec.digest() + ":pure"
        assert result_cache_key(spec, "pure") != result_cache_key(
            spec, "numpy"
        )

    def test_cache_policy_does_not_change_the_address(self):
        spec = FloodSpec(graph=cycle_graph(9), sources=(0,))
        for mode in ("bypass", "refresh"):
            assert spec.digest() == spec.replace(cache=mode).digest()

    def test_invalid_cache_policy_rejected_at_construction(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            FloodSpec(graph=cycle_graph(9), sources=(0,), cache="sometimes")

    def test_stochastic_keys_split_per_seed_and_stream(self):
        graph = cycle_graph(9)

        def key(seed, stream):
            spec = FloodSpec(
                graph=graph,
                sources=(0,),
                variant=thinning(0.5, seed=seed),
                stream=stream,
            )
            return result_cache_key(spec, "pure")

        assert key(1, 0) == key(1, 0)
        assert key(1, 0) != key(1, 1)  # same seed, different stream
        assert key(1, 0) != key(2, 0)  # different seed, same stream

    def test_isolated_nodes_change_the_graph_digest(self):
        from repro.graphs.graph import Graph

        bare = Graph.from_edges([(0, 1)])
        extra = Graph.from_edges([(0, 1)], isolated=[2])
        assert bare.content_digest() != extra.content_digest()

    def test_graph_digest_survives_pickling(self):
        graph = paper_triangle()  # string labels: salted hashing
        original = graph.content_digest()
        assert pickle.loads(pickle.dumps(graph)).content_digest() == original


class TestCrossProcessStability:
    """The digest-stability matrix runs this file under several
    PYTHONHASHSEED values in CI; these subprocess checks make the
    property self-contained as well."""

    RECIPE = (
        "FloodSpec(graph=paper_triangle(), sources=('b', 'a'), "
        "max_rounds=9, collect_receives=True)"
    )

    def run_child(self, code: str, hashseed: str) -> str:
        completed = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": SRC,
                "PATH": "/usr/bin:/bin",
                "PYTHONHASHSEED": hashseed,
            },
        )
        assert completed.returncode == 0, completed.stderr
        return completed.stdout.strip()

    @pytest.mark.parametrize("hashseed", ["0", "1", "12345"])
    def test_cache_key_is_byte_identical_across_hash_salts(self, hashseed):
        code = (
            "from repro.api import FloodSpec\n"
            "from repro.graphs import paper_triangle\n"
            "from repro.cache import result_cache_key\n"
            f"spec = {self.RECIPE}\n"
            "print(result_cache_key(spec, 'numpy'))"
        )
        here = result_cache_key(
            FloodSpec(
                graph=paper_triangle(),
                sources=("b", "a"),
                max_rounds=9,
                collect_receives=True,
            ),
            "numpy",
        )
        assert self.run_child(code, hashseed) == here

    @pytest.mark.parametrize("hashseed", ["0", "1", "12345"])
    def test_graph_content_digest_across_hash_salts(self, hashseed):
        code = (
            "from repro.graphs import paper_triangle\n"
            "print(paper_triangle().content_digest())"
        )
        assert (
            self.run_child(code, hashseed)
            == paper_triangle().content_digest()
        )


class TestCodecRoundTrip:
    @pytest.mark.parametrize(
        "backend",
        ["pure"] + (["numpy"] if HAS_NUMPY else []),
    )
    @pytest.mark.parametrize("collect", [False, True])
    def test_round_trip_is_bit_identical(self, backend, collect):
        spec = FloodSpec(
            graph=cycle_graph(17),
            sources=(0, 5),
            backend=backend,
            collect_senders=collect,
            collect_receives=collect,
        )
        run = run_spec(spec)
        back = decode_run(encode_run(run), spec)
        assert back is not None
        assert identical(run, back)
        assert back.index is run.index  # same memoised CSR index

    def test_retired_backend_name_decodes_as_a_miss(self):
        spec = FloodSpec(graph=cycle_graph(9), sources=(0,))
        run = dataclasses.replace(run_spec(spec), backend="oracle")
        assert decode_run(encode_run(run), spec) is None

    def test_variant_round_trip_keeps_reached_count(self):
        spec = FloodSpec(
            graph=cycle_graph(17),
            sources=(0,),
            variant=thinning(0.8, seed=3),
            stream=2,
        )
        run = run_spec(spec)
        back = decode_run(encode_run(run), spec)
        assert back is not None
        assert identical(run, back)
        assert back.reached_count == run.reached_count
        assert back.variant == spec.variant

    def test_decoded_lists_are_private_copies(self):
        spec = FloodSpec(graph=cycle_graph(9), sources=(0,))
        run = run_spec(spec)
        blob = encode_run(run)
        first = decode_run(blob, spec)
        second = decode_run(blob, spec)
        first.round_edge_counts.append(999)  # caller misbehaves
        assert second.round_edge_counts != first.round_edge_counts

    def test_budget_cut_off_round_trips(self):
        spec = FloodSpec(graph=cycle_graph(30), sources=(0,), max_rounds=3)
        run = run_spec(spec)
        assert not run.terminated
        back = decode_run(encode_run(run), spec)
        assert back is not None and identical(run, back)


class TestCodecRejection:
    SPEC = None

    def setup_method(self):
        self.spec = FloodSpec(graph=cycle_graph(9), sources=(0,))

    def test_garbage_is_none(self):
        assert decode_run(b"not a pickle", self.spec) is None

    def test_wrong_magic_is_none(self):
        blob = pickle.dumps(
            ("other-project", CACHE_FORMAT_VERSION, "pure",
             (True, [2, 2], 4, None, None))
        )
        assert decode_run(blob, self.spec) is None

    def test_future_version_is_none(self):
        blob = pickle.dumps(
            (CACHE_MAGIC, CACHE_FORMAT_VERSION + 1, "pure",
             (True, [2, 2], 4, None, None))
        )
        assert decode_run(blob, self.spec) is None

    def test_unknown_backend_is_none(self):
        blob = pickle.dumps(
            (CACHE_MAGIC, CACHE_FORMAT_VERSION, "quantum",
             (True, [2, 2], 4, None, None))
        )
        assert decode_run(blob, self.spec) is None

    @pytest.mark.parametrize(
        "raw",
        [
            (True, [2, 2], 4, None),  # too short
            ("yes", [2, 2], 4, None, None),  # terminated not bool
            (True, "22", 4, None, None),  # counts not a list
            (True, [2, "2"], 4, None, None),  # count not int
            (True, [2, 2], 4.5, None, None),  # total not int
            (True, [2, 2], 4, "senders", None),  # senders not list
            (True, [2, 2], 4, None, None, "n"),  # reached not int
            None,  # not a tuple at all
        ],
    )
    def test_malformed_raw_is_none(self, raw):
        blob = pickle.dumps((CACHE_MAGIC, CACHE_FORMAT_VERSION, "pure", raw))
        assert decode_run(blob, self.spec) is None

    def test_truncated_valid_blob_is_none(self):
        run = run_spec(self.spec)
        blob = encode_run(run)
        assert decode_run(blob[: len(blob) // 2], self.spec) is None
