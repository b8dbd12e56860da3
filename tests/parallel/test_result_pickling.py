"""Sweep results must cross process boundaries cleanly.

``IndexedRun`` and ``IndexedGraph`` travel between pool workers and the
parent, so they have to be plain picklable data: no closures, no
process-local memo caches riding along.  The index's pickle support
drops its backend caches (`_send_cache`, `_numpy_arrays`) -- they are
lazily rebuilt working state, and shipping them would silently multiply
payload sizes with the sweep count.
"""

from __future__ import annotations

import pickle

import pytest

from repro.api import FloodSpec
from repro.fastpath import IndexedGraph, available_backends, run_spec, sweep
from repro.graphs import cycle_graph, erdos_renyi, paper_triangle


class TestIndexedGraphPickling:
    def test_round_trip_preserves_csr(self):
        graph = erdos_renyi(30, 0.2, seed=6, connected=True)
        index = IndexedGraph.of(graph)
        clone = pickle.loads(pickle.dumps(index))
        assert clone.graph == graph
        assert clone.labels == index.labels
        assert clone.ids == index.ids
        assert clone.offsets == index.offsets
        assert clone.targets == index.targets
        assert clone.reverse_slot == index.reverse_slot
        assert clone.reverse_bit == index.reverse_bit
        assert clone.full_masks == index.full_masks

    def test_memo_caches_do_not_leak_across_the_wire(self):
        graph = cycle_graph(16)
        index = IndexedGraph(graph)
        # Populate both process-local caches.
        run_spec(FloodSpec(graph=graph, sources=(0,), backend="pure"), index)
        if "numpy" in available_backends():
            run_spec(
                FloodSpec(graph=graph, sources=(0,), backend="numpy"), index
            )
            assert index._numpy_arrays is not None
        assert index._send_cache is not None
        clone = pickle.loads(pickle.dumps(index))
        assert clone._send_cache is None
        assert clone._numpy_arrays is None

    def test_restored_index_still_runs(self):
        graph = cycle_graph(9)
        clone = pickle.loads(pickle.dumps(IndexedGraph.of(graph)))
        for backend in available_backends():
            run = run_spec(
                FloodSpec(graph=graph, sources=(0,), backend=backend), clone
            )
            assert run.termination_round == 9


class TestSweepResultPickling:
    @pytest.mark.parametrize("backend", available_backends())
    def test_round_trip_every_backend(self, backend):
        graph = paper_triangle()
        runs = sweep(
            graph,
            [["b"], ["a", "c"]],
            backend=backend,
            collect_senders=True,
            collect_receives=True,
        )
        for original in runs:
            clone = pickle.loads(pickle.dumps(original))
            assert clone.sources == original.sources
            assert clone.backend == original.backend
            assert clone.terminated == original.terminated
            assert clone.termination_round == original.termination_round
            assert clone.total_messages == original.total_messages
            assert clone.round_edge_counts == original.round_edge_counts
            # Label-space accessors survive the trip (they only need
            # the CSR labels, not the memo caches).
            assert clone.sender_sets() == original.sender_sets()
            assert clone.receive_rounds() == original.receive_rounds()

    def test_light_results_stay_light(self):
        run, = sweep(cycle_graph(8), [[0]])
        clone = pickle.loads(pickle.dumps(run))
        assert clone.sender_ids is None
        assert clone.receive_rounds_by_id is None

    def test_budget_cutoff_round_trips(self):
        run, = sweep(cycle_graph(9), [[0]], max_rounds=2)
        clone = pickle.loads(pickle.dumps(run))
        assert not clone.terminated
        assert clone.termination_round == 2

    def test_payload_excludes_caches_by_size(self):
        """A warmed index pickles to the same bytes as a cold one."""
        graph = erdos_renyi(60, 0.1, seed=9, connected=True)
        cold = pickle.dumps(IndexedGraph(graph))
        warmed_index = IndexedGraph(graph)
        sweep_graph = warmed_index.graph
        for source in sweep_graph.nodes()[:10]:
            run_spec(
                FloodSpec(graph=sweep_graph, sources=(source,), backend="pure"),
                warmed_index,
            )
        assert len(pickle.dumps(warmed_index)) == len(cold)
