"""``backend="oracle"`` is retired: every tier rejects it with a typed error.

The double-cover oracle is a test reference now
(:func:`repro.fastpath.oracle_backend.run`, called by name through
:func:`tests.conftest.cover_runs`), and the paper's termination
question has its own lane (:func:`repro.core.all_pairs_termination`).
A request naming the oracle fails with a ``ConfigurationError`` that
names both: at construction (``FloodSpec``, ``sweep``,
``parallel_sweep``), and -- for a spec that skipped construction, as
one unpickled from an older release does -- at backend resolution in
``FloodSession`` and ``FloodService``, before the service admits it.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import BACKEND_NAMES, FloodSession, FloodSpec
from repro.errors import ConfigurationError
from repro.fastpath import available_backends, sweep, thinning
from repro.fastpath.engine import validate_backend_name
from repro.fastpath.numpy_backend import HAS_NUMPY
from repro.graphs import cycle_graph, erdos_renyi
from repro.parallel import parallel_sweep
from repro.service import FloodService

GRAPH = cycle_graph(9)
NAMES_BOTH = r"oracle_backend\.run.*all_pairs_termination"


def unvalidated_oracle_spec():
    """A spec carrying ``backend="oracle"`` past construction."""
    spec = FloodSpec(GRAPH, (0,))
    object.__setattr__(spec, "backend", "oracle")
    return spec


class TestBackendNames:
    def test_every_listed_name_validates(self):
        assert "oracle" not in BACKEND_NAMES
        for name in BACKEND_NAMES:
            if name == "numpy" and not HAS_NUMPY:
                with pytest.raises(ConfigurationError, match="numpy"):
                    validate_backend_name(name)
            else:
                validate_backend_name(name)
        validate_backend_name(None)

    def test_available_backends_read_the_one_list(self):
        assert available_backends() == tuple(
            name for name in BACKEND_NAMES if name != "numpy" or HAS_NUMPY
        )

    def test_oracle_names_the_reference_and_the_termination_lane(self):
        with pytest.raises(ConfigurationError, match=NAMES_BOTH):
            validate_backend_name("oracle")

    def test_other_unknown_names_do_not_mention_the_oracle(self):
        with pytest.raises(ConfigurationError) as caught:
            validate_backend_name("gpu")
        assert "oracle" not in str(caught.value)


class TestEveryTierRejects:
    def test_flood_spec_construction(self):
        with pytest.raises(ConfigurationError, match=NAMES_BOTH):
            FloodSpec(GRAPH, (0,), backend="oracle")
        with pytest.raises(ConfigurationError, match=NAMES_BOTH):
            FloodSpec(GRAPH, (0,)).replace(backend="oracle")

    def test_variant_with_oracle_still_raises(self):
        with pytest.raises(ConfigurationError, match="oracle"):
            FloodSpec(GRAPH, (0,), variant=thinning(0.5), backend="oracle")
        with pytest.raises(ConfigurationError, match="oracle"):
            sweep(GRAPH, [[0]], variant=thinning(0.5), backend="oracle")

    @pytest.mark.parametrize("source_sets", [[[0], [3]], []])
    def test_sweep(self, source_sets):
        with pytest.raises(ConfigurationError, match=NAMES_BOTH):
            sweep(GRAPH, source_sets, backend="oracle")

    def test_parallel_sweep_with_workers(self):
        graph = erdos_renyi(40, 0.15, seed=2, connected=True)
        source_sets = [[v] for v in graph.nodes()]
        with pytest.raises(ConfigurationError, match=NAMES_BOTH):
            parallel_sweep(graph, source_sets, backend="oracle", workers=2)

    @pytest.mark.parametrize("workers", [0, None])
    def test_session_sweep(self, workers):
        with FloodSession(workers=workers) as session:
            with pytest.raises(ConfigurationError, match=NAMES_BOTH):
                session.sweep([unvalidated_oracle_spec()] * 2)

    def test_service_rejects_before_admission(self):
        async def main():
            async with FloodService(workers=0) as service:
                with pytest.raises(ConfigurationError, match=NAMES_BOTH):
                    await service.query_spec(unvalidated_oracle_spec())
                assert service.pending == 0
                assert service._gate.used == 0
                assert service.stats.queries == 0  # never admitted
                served = await service.query_spec(FloodSpec(GRAPH, (0,)))
                assert served.termination_round == 9
                assert service.stats.queries == 1

        asyncio.run(main())
