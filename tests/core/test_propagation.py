"""Tests for the propagation kernel and the build report.

The kernel is the one BCA path; the seed's per-node dict loop in
``tests/reference.py`` is the oracle it is compared against.
"""

import copy

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    IndexParams,
    PropagationKernel,
    ReverseTopKEngine,
    ReverseTopKIndex,
    build_index,
    rebuild_node_state,
    refine_node_state,
)
from repro.core import propagation
from repro.core.lbi import _compute_hub_matrix
from repro.core.propagation import _HubExpansion, _batched_top_k, _flat_columns
from repro.utils.sparsetools import top_k_descending

from tests.conftest import run_states
from tests.reference import (
    SeedState,
    assert_same_state,
    bca_iteration,
    index_states,
    initial_node_state,
    seed_index,
    seed_states,
)


@pytest.fixture(scope="module")
def kernel_inputs(small_web_graph, small_transition, small_params):
    from repro.core.lbi import default_hub_selection

    params = small_params.for_graph(small_web_graph.n_nodes)
    hubs = default_hub_selection(small_web_graph, params)
    hub_matrix, _, _ = _compute_hub_matrix(small_transition, hubs, params)
    hub_mask = hubs.mask(small_web_graph.n_nodes)
    return sp.csc_matrix(small_transition), hub_mask, params, hubs, hub_matrix


class TestKernelBackends:
    """The one kernel: chunking, the seed oracle, single steps, scratch."""

    def test_vectorized_block_composition_invariance(self, kernel_inputs, monkeypatch):
        # A source's trajectory must not depend on which other sources share
        # its chunk: tiny chunks, one wide chunk and single-source runs all
        # produce bit-identical states.
        matrix, hub_mask, params, hubs, hub_matrix = kernel_inputs
        sources = [node for node in range(matrix.shape[0]) if not hub_mask[node]]
        kernel = PropagationKernel(
            matrix, hub_mask, params, hubs=hubs, hub_matrix=hub_matrix
        )
        wide = run_states(kernel, sources)
        monkeypatch.setattr(propagation, "CHUNK_WIDTH", 2)
        narrow = run_states(kernel, sources)
        for a, b in zip(wide, narrow):
            assert_same_state(a, b)
        for source, state in zip(sources[:5], wide[:5]):
            assert_same_state(state, run_states(kernel, [source])[0])

    def test_vectorized_close_to_scalar(self, kernel_inputs):
        # Against the seed loop the kernel agrees to accumulation order.
        matrix, hub_mask, params, hubs, hub_matrix = kernel_inputs
        sources = [node for node in range(matrix.shape[0]) if not hub_mask[node]]
        expansion = _HubExpansion(matrix.shape[0], hubs, hub_matrix)
        kernel_states = run_states(
            PropagationKernel(
                matrix, hub_mask, params, hubs=hubs, hub_matrix=hub_matrix
            ),
            sources,
        )
        scalar = seed_states(matrix, hub_mask, params, expansion, sources)
        for vec_state, sca_state in zip(kernel_states, scalar):
            np.testing.assert_allclose(
                expansion.expand(vec_state), expansion.expand(sca_state.flat()),
                rtol=0, atol=1e-12,
            )
            np.testing.assert_allclose(
                vec_state.lower_bounds, sca_state.lower_bounds, rtol=0, atol=1e-12
            )
            assert vec_state.iterations == sca_state.iterations

    def test_rejects_hub_sources(self, kernel_inputs):
        matrix, hub_mask, params, hubs, hub_matrix = kernel_inputs
        kernel = PropagationKernel(
            matrix, hub_mask, params, hubs=hubs, hub_matrix=hub_matrix
        )
        hub = int(np.flatnonzero(hub_mask)[0])
        with pytest.raises(ValueError, match="hub"):
            kernel.run([hub])

    def test_rejects_unknown_backend(self, kernel_inputs):
        # There is one kernel: no parameter selects or sizes another.
        matrix, hub_mask, params, _, _ = kernel_inputs
        with pytest.raises(TypeError, match="backend"):
            PropagationKernel(matrix, hub_mask, params, backend="sparse")
        with pytest.raises(TypeError, match="reuse_buffers"):
            PropagationKernel(matrix, hub_mask, params, reuse_buffers=False)
        for field in ("backend", "block_size"):
            with pytest.raises(TypeError, match=field):
                IndexParams(capacity=5, **{field: 1})

    def test_step_matches_scalar_reference(self, kernel_inputs):
        # One working-set step from the same state content moves the same ink
        # as one seed-loop bca_iteration that pushes every node holding
        # residue (within accumulation-order tolerance).
        matrix, hub_mask, params, hubs, hub_matrix = kernel_inputs
        source = int(np.flatnonzero(~hub_mask)[0])
        reference = initial_node_state(source, False)
        kernel = PropagationKernel(
            matrix, hub_mask, params, hubs=hubs, hub_matrix=hub_matrix
        )
        working = kernel.load(reference.flat())
        try:
            for _ in range(4):
                progressed = kernel.step(working)
                assert progressed == bca_iteration(
                    reference, matrix, hub_mask, params,
                    propagation_threshold=5e-324,  # smallest positive float
                )
                if not progressed:
                    break
                state = SeedState.of(working.spill())
                assert state.residual == pytest.approx(reference.residual, abs=1e-12)
                assert state.retained == pytest.approx(reference.retained, abs=1e-12)
                assert state.hub_ink == pytest.approx(reference.hub_ink, abs=1e-12)
                assert state.iterations == reference.iterations
        finally:
            working.release()

    def test_step_pushes_residue_below_the_build_threshold(self, kernel_inputs):
        # eta stops the *build*; a query-time step pushes whatever is left,
        # and reports no progress only once nothing is.
        matrix, hub_mask, params, hubs, hub_matrix = kernel_inputs
        source = int(np.flatnonzero(~hub_mask)[0])
        state = initial_node_state(source, False)
        state.residual = {source: params.propagation_threshold / 4}
        assert not bca_iteration(state, matrix, hub_mask, params)
        kernel = PropagationKernel(
            matrix, hub_mask, params, hubs=hubs, hub_matrix=hub_matrix
        )
        working = kernel.load(state.flat())
        try:
            assert kernel.step(working)
            assert working.iterations == 1
            # Arrivals on hubs move to s; the rest of the 1 - alpha share stays.
            pushed = (1.0 - params.alpha) * params.propagation_threshold / 4
            assert working.residue.sum() + working.hub_ink.sum() == pytest.approx(pushed)
        finally:
            working.release()
        drained = kernel.load(
            SeedState(retained={source: 1.0}).flat()
        )
        try:
            assert not kernel.step(drained)
            assert drained.iterations == 0
        finally:
            drained.release()

    def test_release_hands_scratch_back_clean(self, kernel_inputs):
        # The dense scratch is shared by every candidate a thread refines:
        # a released working set must leave no ink behind, and one that was
        # abandoned mid-refinement must not leak into the next load.
        matrix, hub_mask, params, hubs, hub_matrix = kernel_inputs
        kernel = PropagationKernel(
            matrix, hub_mask, params, hubs=hubs, hub_matrix=hub_matrix
        )
        sources = np.flatnonzero(~hub_mask)[:2]
        first = kernel.load(initial_node_state(int(sources[0]), False).flat())
        for _ in range(5):
            kernel.step(first)
        first.release()
        for plane in (first.residual, first.retained, first.vector):
            assert not plane.any()
        abandoned = kernel.load(
            initial_node_state(int(sources[0]), False).flat()
        )
        for _ in range(5):
            kernel.step(abandoned)
        fresh = kernel.load(
            initial_node_state(int(sources[1]), False).flat()
        )
        try:
            assert SeedState.of(fresh.spill()).residual == {int(sources[1]): 1.0}
            assert not fresh.vector.any()
        finally:
            fresh.release()

    def test_load_requires_hub_info(self, kernel_inputs):
        matrix, hub_mask, params, _, _ = kernel_inputs
        kernel = PropagationKernel(matrix, hub_mask, params)
        with pytest.raises(ValueError, match="materialize"):
            kernel.load(initial_node_state(0, False).flat())


class TestSpillHelpers:
    """The batched helpers the spill uses instead of one sort per source."""

    @pytest.mark.parametrize("k", [3, 8, 11], ids=["below_n", "at_n", "above_n"])
    def test_batched_top_k_matches_top_k_descending(self, k):
        rng = np.random.default_rng(k)
        vectors = rng.random((8, 5))
        vectors[rng.random((8, 5)) < 0.4] = 0.0
        vectors[:, 1] = 0.25  # an all-tied column
        vectors[:, 2] = 0.0  # an empty column
        got = _batched_top_k(vectors, k)
        assert got.shape == (k, 5)
        for column in range(5):
            np.testing.assert_array_equal(
                got[:, column], top_k_descending(vectors[:, column], k)
            )

    def test_flat_columns_are_ascending_key_segments(self):
        matrix = np.array(
            [[0.0, 0.5, 0.0], [0.3, 0.0, 0.0], [0.2, 0.1, 0.0], [0.0, 0.4, 0.0]]
        )
        labels = np.array([10, 20, 30, 40])
        counts, keys, values = _flat_columns(matrix, np.array([2, 0, 1]), labels)
        np.testing.assert_array_equal(counts, [0, 2, 3])
        np.testing.assert_array_equal(keys, [20, 30, 10, 30, 40])
        np.testing.assert_array_equal(values, [0.3, 0.2, 0.5, 0.1, 0.4])
        assert keys.dtype == np.int64 and counts.dtype == np.int64


class TestBuildBackends:
    """Kernel-built indexes against the seed loop and against themselves."""

    def test_build_backends_agree_on_queries(
        self, small_web_graph, small_transition, small_params
    ):
        # The kernel's index and one assembled from the seed loop's states
        # answer every probed query identically.
        kernel_engine = ReverseTopKEngine(
            small_transition,
            build_index(small_web_graph, small_params, transition=small_transition),
        )
        seed_engine = ReverseTopKEngine(
            small_transition,
            seed_index(small_web_graph, small_params, small_transition),
        )
        for query in (0, 7, 23, 59):
            a = kernel_engine.query(query, 5, update_index=False)
            b = seed_engine.query(query, 5, update_index=False)
            np.testing.assert_array_equal(a.nodes, b.nodes)

    def test_rebuild_node_state_matches_build(
        self, small_web_graph, small_transition, small_params
    ):
        index = build_index(small_web_graph, small_params, transition=small_transition)
        hub_mask = index.hubs.mask(small_web_graph.n_nodes)
        expansion = _HubExpansion(
            small_web_graph.n_nodes, index.hubs, index.hub_matrix
        )
        matrix = sp.csc_matrix(small_transition)
        for node in np.flatnonzero(~hub_mask)[:6]:
            rebuilt = rebuild_node_state(
                int(node), matrix, hub_mask, index.params, expansion
            )
            assert_same_state(rebuilt, index.state_arrays(int(node)))

    def test_refine_uses_index_backend(self, small_web_graph, small_transition, small_params):
        # Whether the kernel or the seed loop built the index, refinement
        # routes through the kernel and keeps tightening bounds until exact.
        for index in (
            build_index(small_web_graph, small_params, transition=small_transition),
            seed_index(small_web_graph, small_params, small_transition),
        ):
            hub_mask = index.hubs.mask(small_web_graph.n_nodes)
            matrix = sp.csc_matrix(small_transition)
            node = next(v for v, s in index_states(index) if not s.is_exact)
            kernel = PropagationKernel(
                matrix, hub_mask, index.params,
                hubs=index.hubs, hub_matrix=index.hub_matrix,
            )
            working = kernel.load(index.state_arrays(node))
            before = working.lower_bounds.copy()
            try:
                for _ in range(10_000):
                    if not refine_node_state(
                        working, index, matrix, hub_mask, kernel=kernel
                    ):
                        break
                state = working.spill()
            finally:
                working.release()
            assert state.is_exact
            assert np.all(state.lower_bounds >= before - 1e-12)

    def test_params_round_trip_through_the_layout(
        self, small_web_graph, small_transition, tmp_path
    ):
        # Parameters round-trip through the layout's meta archive, which
        # records no implementation choice.
        params = IndexParams(capacity=10, hub_budget=3).for_graph(small_web_graph.n_nodes)
        index = build_index(small_web_graph, params, transition=small_transition)
        index.persist(tmp_path / "layout")
        with np.load(tmp_path / "layout" / "sharded-meta.npz", allow_pickle=False) as data:
            assert not {"backend", "block_size"} & set(data.files)
        loaded = ReverseTopKIndex.load(tmp_path / "layout")
        assert loaded.params == params
        assert loaded.build_report is None


class TestBuildReport:
    def test_report_phases_sum_to_build_seconds(
        self, small_web_graph, small_transition, small_params
    ):
        index = build_index(small_web_graph, small_params, transition=small_transition)
        report = index.build_report
        assert set(report.stage_seconds) == {"hub_matrix", "bca", "materialize"}
        assert all(seconds >= 0.0 for seconds in report.stage_seconds.values())
        assert report.build_seconds == pytest.approx(
            sum(report.stage_seconds.values()), abs=0.0
        )
        assert index.build_seconds == report.build_seconds
        assert report.n_nodes == small_web_graph.n_nodes
        assert report.n_targets == small_web_graph.n_nodes
        as_dict = report.as_dict()
        assert set(as_dict) == {
            "n_nodes", "n_targets", "stage_seconds", "build_seconds"
        }
        assert as_dict["build_seconds"] == report.build_seconds

    def test_report_survives_deepcopy_not_reload(self, small_index):
        clone = copy.deepcopy(small_index)
        assert clone.build_report is not None
        assert clone.build_report.build_seconds == small_index.build_report.build_seconds


    def test_out_of_core_build_reports_and_counts(
        self, small_web_graph, small_transition, small_params, tmp_path
    ):
        # Every build reports — a partitioned, streamed-to-disk one too: its
        # report carries the write-out as ``persist`` and the process-wide
        # build counters move with it.
        from repro.obs import get_registry

        registry = get_registry()
        stage_family = registry.counter(
            "repro_index_build_seconds_total", labels=("stage",)
        )
        builds = registry.counter("repro_index_builds_total").value
        nodes = registry.counter("repro_index_build_nodes_total").value
        persisted = stage_family.labels(stage="persist").value
        index = build_index(
            small_web_graph, small_params, transition=small_transition,
            n_shards=3, directory=tmp_path / "layout", memory_budget=0,
        )
        assert all(shard.backing == "memmap" for shard in index.shards)
        report = index.build_report
        assert set(report.stage_seconds) == {
            "hub_matrix", "bca", "materialize", "persist"
        }
        assert report.stage_seconds["persist"] > 0.0
        assert index.build_seconds == report.build_seconds
        assert report.n_nodes == report.n_targets == small_web_graph.n_nodes
        assert registry.counter("repro_index_builds_total").value == builds + 1
        assert registry.counter("repro_index_build_nodes_total").value == (
            nodes + small_web_graph.n_nodes
        )
        assert stage_family.labels(stage="persist").value == pytest.approx(
            persisted + report.stage_seconds["persist"]
        )


def _weighted_case(weighted_coauthor_graph):
    from repro.graph import weighted_transition_matrix

    graph, _ = weighted_coauthor_graph
    return graph, weighted_transition_matrix(graph)


class TestParallelBuild:
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_parallel_build_bit_identical_to_serial(
        self, small_web_graph, small_transition, small_params,
        weighted_coauthor_graph, weighted, n_shards,
    ):
        graph, matrix = (
            _weighted_case(weighted_coauthor_graph)
            if weighted
            else (small_web_graph, small_transition)
        )
        serial = build_index(graph, small_params, transition=matrix)
        parallel = build_index(
            graph, small_params, transition=matrix, n_shards=n_shards, n_workers=2
        )
        assert parallel.n_shards == n_shards
        assert parallel.hubs.nodes == serial.hubs.nodes
        np.testing.assert_array_equal(
            parallel.hub_matrix.toarray(), serial.hub_matrix.toarray()
        )
        for (node, a), (_, b) in zip(index_states(parallel), index_states(serial)):
            assert_same_state(a, b)
        for name in ("lower", "residual_mass", "is_exact"):
            np.testing.assert_array_equal(
                getattr(parallel.columns, name), getattr(serial.columns, name)
            )

    def test_single_worker_runs_in_process(
        self, small_web_graph, small_transition, small_params
    ):
        index = build_index(
            small_web_graph, small_params, transition=small_transition, n_workers=1
        )
        reference = build_index(
            small_web_graph, small_params, transition=small_transition
        )
        for (_, a), (_, b) in zip(index_states(index), index_states(reference)):
            assert_same_state(a, b)


class TestLegacyArchiveCompat:
    """Layouts written while ``IndexParams`` still carried ``backend`` and
    ``block_size`` load with those fields ignored, with or without them."""

    @staticmethod
    def _with_legacy_fields(arrays, backend):
        patched = dict(arrays)
        if backend is not None:
            patched["backend"] = np.array([backend])
            patched["block_size"] = np.array([7])
        return patched

    @pytest.mark.parametrize("backend", [None, "scalar", "vectorized", "sparse"])
    def test_sharded_archive_loads_with_or_without_backend_fields(
        self, small_web_graph, small_transition, small_params, tmp_path, backend
    ):
        layout = tmp_path / "layout"
        index = build_index(
            small_web_graph, small_params, transition=small_transition,
            n_shards=3, directory=layout,
        )
        meta = layout / "sharded-meta.npz"
        with np.load(meta, allow_pickle=False) as data:
            payload = self._with_legacy_fields(
                {name: data[name] for name in data.files}, backend
            )
        with open(meta, "wb") as handle:
            np.savez(handle, **payload)
        loaded = ReverseTopKIndex.load(layout)
        assert loaded.params == index.params
        k = index.params.capacity
        np.testing.assert_array_equal(
            loaded.kth_lower_bounds(k), index.kth_lower_bounds(k)
        )
