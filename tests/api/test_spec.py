"""FloodSpec construction, canonicalisation and the validation matrix.

The spec's contract is "validated once, runnable everywhere": every
invalid field combination must fail at construction with a
:class:`ConfigurationError` (or :class:`NodeNotFoundError`) whose
message names the offending field, and a constructed spec must be
canonical -- equal requests compare (and hash) equal no matter how
they were spelled.
"""

import pytest

from repro.api import BatchKey, FloodSpec
from repro.errors import ConfigurationError, NodeNotFoundError
from repro.fastpath import bernoulli_loss, thinning
from repro.fastpath.numpy_backend import HAS_NUMPY
from repro.graphs import cycle_graph, path_graph
from repro.sync.engine import default_round_budget


GRAPH = cycle_graph(9)


class TestConstruction:
    def test_minimal_spec_resolves_budget(self):
        spec = FloodSpec(graph=GRAPH, sources=(0,))
        assert spec.max_rounds == default_round_budget(GRAPH)

    def test_sources_deduplicated_first_seen(self):
        spec = FloodSpec(graph=GRAPH, sources=(3, 0, 3, 0))
        assert spec.sources == (3, 0)

    def test_sources_accept_any_iterable(self):
        assert FloodSpec(graph=GRAPH, sources=[0, 4]).sources == (0, 4)

    def test_equal_requests_compare_and_hash_equal(self):
        a = FloodSpec(graph=GRAPH, sources=(0,), max_rounds=None)
        b = FloodSpec(
            graph=cycle_graph(9), sources=[0],
            max_rounds=default_round_budget(GRAPH),
        )
        assert a == b
        assert hash(a) == hash(b)
        assert a.digest() == b.digest()

    def test_integer_likes_share_one_digest(self):
        np = pytest.importorskip("numpy")
        variant = thinning(0.5, seed=3)
        a = FloodSpec(
            graph=GRAPH, sources=(0,), max_rounds=np.int64(3),
            variant=variant, stream=np.int64(2),
        )
        b = FloodSpec(
            graph=GRAPH, sources=(0,), max_rounds=3, variant=variant, stream=2
        )
        assert type(a.max_rounds) is int and type(a.stream) is int
        assert a == b
        assert a.digest() == b.digest()

    def test_deterministic_stream_canonicalised_to_zero(self):
        # Deterministic runs consume no randomness; stream must not
        # split their batches.
        a = FloodSpec(graph=GRAPH, sources=(0,), stream=5)
        b = FloodSpec(graph=GRAPH, sources=(0,))
        assert a.stream == 0
        assert a == b

    def test_variant_stream_preserved(self):
        spec = FloodSpec(
            graph=GRAPH, sources=(0,), variant=thinning(0.5, seed=3), stream=5
        )
        assert spec.stream == 5
        assert spec.run_key() == spec.variant.run_key(5)

    def test_replace_revalidates(self):
        spec = FloodSpec(graph=GRAPH, sources=(0,))
        assert spec.replace(sources=(4,)).sources == (4,)
        with pytest.raises(ConfigurationError):
            spec.replace(max_rounds=0)

    def test_batch_key_projection(self):
        spec = FloodSpec(
            graph=GRAPH, sources=(0,), max_rounds=7, collect_senders=True
        )
        assert spec.batch_key("pure") == BatchKey(
            budget=7,
            backend="pure",
            collect_senders=True,
            collect_receives=False,
            variant=None,
        )

    def test_run_key_zero_for_deterministic(self):
        assert FloodSpec(graph=GRAPH, sources=(0,)).run_key() == 0


class TestValidationMatrix:
    """Every invalid combination raises with the field named."""

    def test_non_graph_graph(self):
        with pytest.raises(ConfigurationError, match="graph"):
            FloodSpec(graph={0: [1]}, sources=(0,))

    def test_empty_sources(self):
        with pytest.raises(ConfigurationError, match="source"):
            FloodSpec(graph=GRAPH, sources=())

    def test_unknown_source(self):
        with pytest.raises(NodeNotFoundError):
            FloodSpec(graph=GRAPH, sources=(99,))

    @pytest.mark.parametrize("bad", [0, -3, 2.0, 2.5, "3", True])
    def test_bad_budget(self, bad):
        with pytest.raises(ConfigurationError, match="max_rounds"):
            FloodSpec(graph=GRAPH, sources=(0,), max_rounds=bad)

    def test_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="backend"):
            FloodSpec(graph=GRAPH, sources=(0,), backend="gpu")

    @pytest.mark.skipif(HAS_NUMPY, reason="numpy importable here")
    def test_numpy_backend_unavailable(self):  # pragma: no cover
        with pytest.raises(ConfigurationError, match="numpy"):
            FloodSpec(graph=GRAPH, sources=(0,), backend="numpy")

    def test_variant_with_oracle_backend(self):
        with pytest.raises(ConfigurationError, match="backend"):
            FloodSpec(
                graph=GRAPH,
                sources=(0,),
                backend="oracle",
                variant=bernoulli_loss(0.1),
            )

    @pytest.mark.skipif(not HAS_NUMPY, reason="needs numpy")
    def test_variant_with_numpy_backend(self):
        with pytest.raises(ConfigurationError, match="backend"):
            FloodSpec(
                graph=GRAPH,
                sources=(0,),
                backend="numpy",
                variant=thinning(0.9),
            )

    def test_variant_wrong_type(self):
        with pytest.raises(ConfigurationError, match="variant"):
            FloodSpec(graph=GRAPH, sources=(0,), variant="lossy:0.1")

    def test_scenario_is_not_a_spec_field(self):
        # A scenario string binds to the variant in from_scenario; the
        # spec itself carries only the variant.
        with pytest.raises(TypeError, match="scenario"):
            FloodSpec(graph=GRAPH, sources=(0,), scenario="lossy:0.1")

    def test_unknown_scenario(self):
        with pytest.raises(ConfigurationError, match="scenario"):
            FloodSpec.from_scenario("quantum", GRAPH, (0,))

    def test_scenario_bad_arguments(self):
        with pytest.raises(ConfigurationError, match="scenario"):
            FloodSpec.from_scenario("lossy", GRAPH, (0,))
        with pytest.raises(ConfigurationError, match="scenario"):
            FloodSpec.from_scenario("lossy:lots", GRAPH, (0,))

    def test_scenario_probability_out_of_range(self):
        with pytest.raises(ConfigurationError):
            FloodSpec.from_scenario("lossy:1.5", GRAPH, (0,))

    def test_ported_scenario_backend_rules(self):
        # Built-in scenarios are variant-backed now: the pure stepper
        # is legal to pin, the deterministic-only engines still raise.
        periodic = FloodSpec.from_scenario("periodic:3", GRAPH, (0,))
        spec = periodic.replace(backend="pure")
        assert spec.backend == "pure"
        for backend in ("oracle", "numpy"):
            with pytest.raises(ConfigurationError, match=backend):
                periodic.replace(backend=backend)

    def test_periodic_scenario_needs_one_source(self):
        with pytest.raises(ConfigurationError, match="periodic"):
            FloodSpec.from_scenario("periodic:3", GRAPH, (0, 3))

    @pytest.mark.parametrize("bad", [-1, 1.5, "0", 1.0, True])
    def test_bad_stream(self, bad):
        with pytest.raises(ConfigurationError, match="stream"):
            FloodSpec(
                graph=GRAPH,
                sources=(0,),
                variant=thinning(0.5),
                stream=bad,
            )

    def test_from_scenario_bad_kmemory(self):
        with pytest.raises(ConfigurationError):
            FloodSpec.from_scenario("kmemory:-1", GRAPH, [0])

    def test_every_backend_name_accepted_when_valid(self):
        names = ["pure", "oracle"] + (["numpy"] if HAS_NUMPY else [])
        for name in names:
            assert FloodSpec(
                graph=path_graph(4), sources=(0,), backend=name
            ).backend == name
