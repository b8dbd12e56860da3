"""FloodSpec identity is stable across pickling and process boundaries.

The spec is the service micro-batch key and (through its BatchKey
projection) the pool task payload, so three properties are
load-bearing and pinned here:

* pickle round-trips preserve equality and in-process hash (a spec
  that crossed a queue must land in the same bucket as its original);
* :meth:`FloodSpec.digest` is a pure function of content -- equal in a
  fresh interpreter, where Python's salted string hashing would
  disagree (the paper-triangle graph uses string labels on purpose);
* a pickled spec unpickled in another process still equals a spec
  built there from the same recipe.
"""

import pickle
import subprocess
import sys
from pathlib import Path

from repro.api import BatchKey, FloodSpec
from repro.fastpath import thinning
from repro.graphs import cycle_graph, paper_triangle

SRC = str(Path(__file__).resolve().parents[2] / "src")

RECIPE = (
    "FloodSpec(graph=paper_triangle(), sources=('b',), max_rounds=17, "
    "variant=thinning(0.75, seed=5), stream=3, collect_receives=True)"
)


def build_spec() -> FloodSpec:
    return FloodSpec(
        graph=paper_triangle(),
        sources=("b",),
        max_rounds=17,
        variant=thinning(0.75, seed=5),
        stream=3,
        collect_receives=True,
    )


def run_child(code: str) -> str:
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip()


class TestInProcessStability:
    def test_pickle_round_trip_preserves_equality_and_hash(self):
        spec = build_spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)
        assert clone.digest() == spec.digest()

    def test_round_tripped_spec_hits_the_same_bucket(self):
        spec = build_spec()
        buckets = {spec: ["original"]}
        clone = pickle.loads(pickle.dumps(spec))
        assert clone in buckets
        buckets[clone].append("clone")
        assert buckets[spec] == ["original", "clone"]

    def test_batch_key_round_trips(self):
        key = build_spec().batch_key("pure")
        clone = pickle.loads(pickle.dumps(key))
        assert clone == key
        assert hash(clone) == hash(key)
        assert isinstance(clone, BatchKey)

    def test_scenario_spec_round_trips(self):
        spec = FloodSpec.from_scenario(
            "random_delay:0.25", cycle_graph(5), [0], seed=9
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec


class TestCrossProcessStability:
    """The regression pins: content identity survives interpreter salt."""

    def test_digest_agrees_with_a_fresh_interpreter(self):
        child = run_child(
            "from repro.api import FloodSpec\n"
            "from repro.fastpath import thinning\n"
            "from repro.graphs import paper_triangle\n"
            f"print({RECIPE}.digest())\n"
        )
        assert child == build_spec().digest()

    def test_pickled_spec_equals_a_fresh_build_in_a_child(self):
        payload = pickle.dumps(build_spec()).hex()
        child = run_child(
            "import pickle\n"
            "from repro.api import FloodSpec\n"
            "from repro.fastpath import thinning\n"
            "from repro.graphs import paper_triangle\n"
            f"shipped = pickle.loads(bytes.fromhex('{payload}'))\n"
            f"local = {RECIPE}\n"
            "assert shipped == local, 'pickled spec != fresh build'\n"
            "assert shipped.digest() == local.digest()\n"
            "assert {shipped: 1}[local] == 1, 'bucket miss'\n"
            "print('ok', shipped.digest())\n"
        )
        status, digest = child.split()
        assert status == "ok"
        assert digest == build_spec().digest()
