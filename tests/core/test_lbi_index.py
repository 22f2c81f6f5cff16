"""Tests for Algorithm 1 (lower-bound indexing) and the index data structure."""

import copy

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import IndexParams, ReverseTopKIndex, build_index
from repro.core.hubs import HubSet, select_hubs_by_degree
from repro.core.lbi import refine_node_state
from repro.core.propagation import PropagationKernel
from repro.graph import transition_matrix
from repro.utils.sparsetools import top_k_descending

from tests.reference import (
    SeedState,
    assert_same_state,
    bca_iteration,
    index_from_states,
    index_states,
    initial_node_state,
)


class TestStateArrays:
    def test_is_exact(self):
        assert SeedState(residual={}).flat().is_exact
        assert not SeedState(residual={1: 0.2}).flat().is_exact
        assert SeedState(is_hub=True).flat().is_exact

    def test_stored_entries(self):
        state = SeedState(residual={0: 1.0}, retained={1: 0.2, 2: 0.1}, hub_ink={3: 0.3})
        assert state.flat().stored_entries() == 4


def _refined(index, transition, node, steps):
    """``node``'s stored state after at most ``steps`` refinement steps, and
    whether the last step progressed; the index itself is left untouched."""
    hub_mask = index.hubs.mask(index.n_nodes)
    matrix = sp.csc_matrix(transition)
    kernel = PropagationKernel(
        matrix, hub_mask, index.params, hubs=index.hubs, hub_matrix=index.hub_matrix
    )
    working = kernel.load(index.state_arrays(node))
    try:
        progressed = False
        for _ in range(steps):
            progressed = refine_node_state(
                working, index, matrix, hub_mask, kernel=kernel
            )
            if not progressed:
                break
        return working.spill(), progressed
    finally:
        working.release()


class TestBCAIteration:
    def test_mass_conservation_across_iterations(self, small_transition, small_params):
        hub_mask = np.zeros(small_transition.shape[0], dtype=bool)
        state = initial_node_state(0, False)
        matrix = sp.csc_matrix(small_transition)
        for _ in range(6):
            before = (
                sum(state.retained.values())
                + sum(state.hub_ink.values())
                + state.residual_mass
            )
            progressed = bca_iteration(state, matrix, hub_mask, small_params)
            after = (
                sum(state.retained.values())
                + sum(state.hub_ink.values())
                + state.residual_mass
            )
            assert after == pytest.approx(before, abs=1e-12)
            if not progressed:
                break

    def test_residual_shrinks(self, small_transition, small_params):
        hub_mask = np.zeros(small_transition.shape[0], dtype=bool)
        state = initial_node_state(0, False)
        matrix = sp.csc_matrix(small_transition)
        masses = [state.residual_mass]
        for _ in range(5):
            bca_iteration(state, matrix, hub_mask, small_params)
            masses.append(state.residual_mass)
        assert masses[-1] < masses[0]

    def test_hub_ink_collected(self, small_web_graph, small_transition, small_params):
        hubs = select_hubs_by_degree(small_web_graph, 3)
        hub_mask = hubs.mask(small_web_graph.n_nodes)
        start = next(v for v in range(small_web_graph.n_nodes) if not hub_mask[v])
        state = initial_node_state(start, False)
        matrix = sp.csc_matrix(small_transition)
        for _ in range(4):
            bca_iteration(state, matrix, hub_mask, small_params)
        # All hub_ink keys must be hubs and no residue may sit at a hub.
        assert all(hub in hubs for hub in state.hub_ink)
        assert all(not hub_mask[node] for node in state.residual)

    def test_returns_false_without_active_nodes(self, small_transition, small_params):
        hub_mask = np.zeros(small_transition.shape[0], dtype=bool)
        state = SeedState(residual={0: small_params.propagation_threshold / 10})
        assert not bca_iteration(state, sp.csc_matrix(small_transition), hub_mask, small_params)


class TestBuildIndex:
    def test_index_shape(self, small_index, small_web_graph, small_params):
        assert small_index.n_nodes == small_web_graph.n_nodes
        assert small_index.capacity == small_params.capacity
        assert small_index.hub_matrix.shape == (
            small_web_graph.n_nodes,
            len(small_index.hubs),
        )

    def test_lower_bounds_are_descending(self, small_index):
        for _, state in index_states(small_index):
            bounds = state.lower_bounds
            assert np.all(np.diff(bounds) <= 1e-12)

    def test_lower_bounds_never_exceed_exact(self, small_index, small_exact_matrix):
        for node, state in index_states(small_index):
            exact_sorted = np.sort(small_exact_matrix[:, node])[::-1]
            k = min(state.lower_bounds.size, exact_sorted.size)
            assert np.all(state.lower_bounds[:k] <= exact_sorted[:k] + 1e-9)

    def test_hub_states_are_exact(self, small_index, small_exact_matrix):
        for hub in small_index.hubs:
            state = small_index.state_arrays(hub)
            assert state.is_hub
            assert state.is_exact
            exact_top = top_k_descending(small_exact_matrix[:, hub], small_index.capacity)
            np.testing.assert_allclose(state.lower_bounds, exact_top, atol=1e-7)

    def test_non_hub_residual_below_delta(self, small_index, small_params):
        for node, state in index_states(small_index):
            if not state.is_hub:
                residual_mass = float(state.residual[1].sum())
                assert residual_mass <= small_params.residue_threshold + 1e-9

    def test_kth_lower_bounds_row(self, small_index):
        row = small_index.kth_lower_bounds(3)
        assert row.shape == (small_index.n_nodes,)
        assert np.all(row >= 0)

    def test_kth_lower_bounds_validates_against_capacity(self, small_index):
        # Regression: the old check used ``max(n_nodes, k)`` as the node bound,
        # which silently accepted any k above n_nodes; k must be validated
        # against the index capacity K (the matrix row count) and nothing else.
        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            small_index.kth_lower_bounds(small_index.capacity + 1)
        with pytest.raises(InvalidParameterError):
            small_index.kth_lower_bounds(0)
        row = small_index.kth_lower_bounds(small_index.capacity)
        assert row.shape == (small_index.n_nodes,)

    def test_kth_lower_bounds_beyond_node_count(self):
        # k may exceed the node count as long as it fits the capacity: the
        # matrix stores K slots per node regardless of the graph size.
        params = IndexParams(capacity=5, hub_budget=0)
        states = [SeedState(lower_bounds=np.array([0.4, 0.2])) for _ in range(3)]
        index = index_from_states(
            params, HubSet(()), sp.csc_matrix((3, 0)), np.zeros(0), states
        )
        np.testing.assert_array_equal(index.kth_lower_bounds(2), np.full(3, 0.2))
        np.testing.assert_array_equal(index.kth_lower_bounds(4), np.zeros(3))

    def test_columnar_lower_plane_shape(self, small_index):
        matrix = small_index.columns.lower
        assert matrix.shape == (small_index.capacity, small_index.n_nodes)

    def test_zero_hub_budget(self, small_web_graph, small_transition):
        params = IndexParams(capacity=10, hub_budget=0)
        index = build_index(small_web_graph, params, transition=small_transition)
        assert len(index.hubs) == 0
        assert index.hub_matrix.shape[1] == 0

    def test_build_from_transition_matrix_only(self, small_transition):
        params = IndexParams(capacity=10, hub_budget=3)
        index = build_index(small_transition, params)
        assert index.n_nodes == small_transition.shape[0]
        assert len(index.hubs) >= 3

    def test_rounding_reduces_hub_matrix_size(self, small_trust_graph):
        # The trust graph is well connected, so hub proximity vectors have a
        # long tail of small entries that rounding removes.
        matrix = transition_matrix(small_trust_graph)
        exact = build_index(
            small_trust_graph,
            IndexParams(capacity=10, hub_budget=4, rounding_threshold=0.0),
            transition=matrix,
        )
        rounded = build_index(
            small_trust_graph,
            IndexParams(capacity=10, hub_budget=4, rounding_threshold=1e-3),
            transition=matrix,
        )
        assert rounded.hub_matrix.nnz < exact.hub_matrix.nnz
        assert rounded.total_bytes() < exact.total_bytes()
        assert np.all(rounded.hub_deficit >= 0.0)
        assert np.any(rounded.hub_deficit > 0.0)

    def test_hub_deficit_zero_without_rounding(self, small_web_graph, small_transition):
        index = build_index(
            small_web_graph,
            IndexParams(capacity=10, hub_budget=4, rounding_threshold=0.0),
            transition=small_transition,
        )
        np.testing.assert_allclose(index.hub_deficit, 0.0, atol=1e-12)

    def test_build_seconds_recorded(self, small_index):
        assert small_index.build_seconds > 0.0

    def test_storage_accounting_keys(self, small_index):
        storage = small_index.storage_bytes()
        assert set(storage) == {"lower_bounds", "bca_state", "hub_matrix", "total"}
        assert storage["total"] == sum(v for k, v in storage.items() if k != "total")


class TestRefinement:
    def test_refinement_tightens_lower_bounds(self, small_web_graph, small_transition, small_params):
        index = build_index(small_web_graph, small_params, transition=small_transition)
        refined_any = False
        for node, state in index_states(index):
            if state.is_exact:
                continue
            refined, progressed = _refined(index, small_transition, node, 1)
            if progressed:
                refined_any = True
                assert np.all(refined.lower_bounds >= state.lower_bounds - 1e-12)
        assert refined_any

    def test_refinement_to_exhaustion_matches_exact(
        self, small_web_graph, small_transition, small_exact_matrix
    ):
        params = IndexParams(capacity=10, hub_budget=4, rounding_threshold=0.0)
        index = build_index(small_web_graph, params, transition=small_transition)
        node = next(v for v, s in index_states(index) if not s.is_hub)
        state, _ = _refined(index, small_transition, node, 10_000)
        exact_top = top_k_descending(small_exact_matrix[:, node], params.capacity)
        np.testing.assert_allclose(state.lower_bounds, exact_top, atol=1e-6)


class TestIndexPersistence:
    def test_persist_load_round_trip(self, small_index, tmp_path):
        small_index.persist(tmp_path / "layout")
        loaded = ReverseTopKIndex.load(tmp_path / "layout")
        assert loaded.n_nodes == small_index.n_nodes
        assert loaded.capacity == small_index.capacity
        assert loaded.hubs.nodes == small_index.hubs.nodes
        for node, state in index_states(small_index):
            assert_same_state(loaded.state_arrays(node), state)

    def test_persist_load_preserves_columnar_views(self, small_index, tmp_path):
        small_index.persist(tmp_path / "layout")
        loaded = ReverseTopKIndex.load(tmp_path / "layout")
        for name in ("lower", "residual_mass", "is_exact"):
            np.testing.assert_array_equal(
                getattr(loaded.columns, name), getattr(small_index.columns, name)
            )

    def test_loaded_index_answers_queries(self, small_index, small_transition, tmp_path):
        from repro.core import ReverseTopKEngine

        small_index.persist(tmp_path / "layout")
        loaded = ReverseTopKIndex.load(tmp_path / "layout")
        original = ReverseTopKEngine(small_transition, copy.deepcopy(small_index)).query(3, 5)
        restored = ReverseTopKEngine(small_transition, loaded).query(3, 5)
        assert set(original.nodes.tolist()) == set(restored.nodes.tolist())

    def test_load_missing_layout_raises(self, tmp_path):
        from repro.exceptions import SerializationError

        with pytest.raises(SerializationError):
            ReverseTopKIndex.load(tmp_path / "nope")


class TestColumnarViews:
    def test_columns_match_per_node_state(self, small_index):
        columns = small_index.columns
        assert columns.lower.shape == (small_index.capacity, small_index.n_nodes)
        for node, state in index_states(small_index):
            for k in (1, 3, small_index.capacity):
                assert columns.lower[k - 1, node] == state.lower_bounds[k - 1]
            assert columns.residual_mass[node] == pytest.approx(
                small_index.state_residual_mass(state)
            )
            assert columns.is_exact[node] == state.is_exact

    def test_set_state_refreshes_columns(self, small_index):
        index = copy.deepcopy(small_index)
        node = next(v for v, s in index_states(index) if not s.is_exact)
        replacement = SeedState(
            lower_bounds=np.full(index.capacity, 0.123), residual={}, is_hub=False
        ).flat()
        index.set_state(node, replacement)
        assert index.columns.lower[0, node] == pytest.approx(0.123)
        assert index.columns.residual_mass[node] == 0.0
        assert bool(index.columns.is_exact[node])

    def test_state_is_by_value_until_set_state(self, small_index, small_transition):
        # A working set loaded from index.state_arrays(v) is detached:
        # refining it changes neither the columns, the version nor a second
        # read — only handing its spill back through set_state does.
        index = copy.deepcopy(small_index)
        node = next(v for v, s in index_states(index) if not s.is_exact)
        stored = index.state_arrays(node)
        before = index.columns.lower[:, node].copy()
        mass_before = index.columns.residual_mass[node]
        version = index.version
        state, progressed = _refined(index, small_transition, node, 1)
        assert progressed
        np.testing.assert_array_equal(index.columns.lower[:, node], before)
        assert index.columns.residual_mass[node] == mass_before
        assert index.version == version
        assert not index.shards[0].store.overlay
        assert_same_state(index.state_arrays(node), stored)
        assert state.iterations == stored.iterations + 1

        index.set_state(node, state)
        assert index.version == version + 1
        np.testing.assert_array_equal(index.columns.lower[:, node], state.lower_bounds)
        assert np.all(index.columns.lower[:, node] >= before - 1e-12)
        assert_same_state(index.state_arrays(node), state)
        # ... and the stored copy is detached from the object handed in.
        state.lower_bounds[:] = 0.0
        assert index.state_arrays(node).lower_bounds[0] > 0.0


def _exact_hub_vector(matrix, hub, params):
    """The exact proximity vector a build computes for ``hub`` (power method)."""
    from repro.rwr.power_method import proximity_vector

    return proximity_vector(
        matrix.tocsr(), hub, alpha=params.alpha, tolerance=params.tolerance
    ).vector


class TestBuildsEqualTheScalarReferenceLoop:
    """Every build lands in the store; the seed's scalar loop is the oracle.

    Hub rows are exactly what the seed produces; BCA rows
    agree with the seed loop to accumulation order (the kernel stores keys
    ascending, the seed in dict order).
    """

    def test_scalar_store_equals_flattened_reference(
        self, small_web_graph, small_transition, small_params
    ):
        from repro.core.lbi import _HubExpansion

        from tests.reference import materialize_lower_bounds, run_node_bca

        index = build_index(small_web_graph, small_params, transition=small_transition)
        assert not index.shards[0].store.overlay
        n = small_web_graph.n_nodes
        matrix = sp.csc_matrix(small_transition)
        hub_mask = index.hubs.mask(n)
        expansion = _HubExpansion(n, index.hubs, index.hub_matrix)
        for node in range(n):
            state = initial_node_state(node, bool(hub_mask[node]))
            if hub_mask[node]:
                state.lower_bounds = top_k_descending(
                    _exact_hub_vector(matrix, node, index.params),
                    index.capacity,
                )
            else:
                run_node_bca(state, matrix, hub_mask, index.params)
                materialize_lower_bounds(state, expansion, index.capacity)
            stored = index.state_arrays(node)
            if hub_mask[node]:
                flat = state.flat()
                for plane in ("residual", "retained", "hub_ink"):
                    for got, want in zip(getattr(stored, plane), getattr(flat, plane)):
                        np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(stored.lower_bounds, state.lower_bounds)
                assert stored.iterations == state.iterations
                continue
            view = SeedState.of(stored)
            for plane in ("residual", "retained", "hub_ink"):
                assert set(getattr(view, plane)) == set(getattr(state, plane))
                assert getattr(view, plane) == pytest.approx(
                    getattr(state, plane), abs=1e-12
                )
            np.testing.assert_allclose(
                stored.lower_bounds, state.lower_bounds, rtol=0, atol=1e-12
            )
            assert stored.iterations == state.iterations


class TestHubMatrixValidation:
    def test_wrong_row_count_hub_matrix_rejected(self, small_web_graph):
        import pytest
        import scipy.sparse as sp

        from repro.core import IndexParams, build_index
        from repro.graph import transition_matrix

        matrix = transition_matrix(small_web_graph)
        index = build_index(
            small_web_graph,
            IndexParams(capacity=5, hub_budget=2).for_graph(small_web_graph.n_nodes),
            transition=matrix,
        )
        n_hubs = len(index.hubs)
        truncated = sp.csc_matrix((index.n_nodes - 1, n_hubs))
        with pytest.raises(ValueError, match="rows"):
            index.apply_updates({}, hub_matrix=truncated)
