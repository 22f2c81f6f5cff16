"""Property-based tests for graph/transition invariants and RWR propositions."""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import scipy.sparse as sp

from repro.core import IndexParams, PropagationKernel
from repro.graph import DiGraph, is_column_stochastic, transition_matrix, weighted_transition_matrix
from repro.rwr import proximity_column
from repro.utils.sparsetools import dense_top_k

from tests.reference import bca_iteration, initial_node_state


@st.composite
def random_digraphs(draw, max_nodes: int = 14):
    """Small random directed graphs with at least one edge."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    density = draw(st.floats(min_value=0.1, max_value=0.6))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    if not mask.any():
        mask[0, 1] = True
    weights = np.where(mask, rng.integers(1, 5, size=(n, n)).astype(float), 0.0)
    return DiGraph(sp.csr_matrix(weights))


class TestTransitionProperties:
    @given(random_digraphs())
    @settings(max_examples=60, deadline=None)
    def test_transition_always_column_stochastic(self, graph):
        assert is_column_stochastic(transition_matrix(graph))

    @given(random_digraphs())
    @settings(max_examples=60, deadline=None)
    def test_weighted_transition_always_column_stochastic(self, graph):
        assert is_column_stochastic(weighted_transition_matrix(graph))

    @given(random_digraphs())
    @settings(max_examples=40, deadline=None)
    def test_proximity_vector_is_distribution(self, graph):
        matrix = transition_matrix(graph)
        vector = proximity_column(matrix, 0, tolerance=1e-8)
        assert vector.min() >= -1e-12
        assert abs(vector.sum() - 1.0) < 1e-6


class TestBCALowerBoundProperties:
    @given(random_digraphs(), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_kernel_retained_is_lower_bound(self, graph, seed):
        matrix = transition_matrix(graph)
        source = seed % graph.n_nodes
        exact = proximity_column(matrix, source, tolerance=1e-9)
        params = IndexParams(
            capacity=5, hub_budget=0, propagation_threshold=1e-3
        ).for_graph(graph.n_nodes)
        no_hubs = np.zeros(graph.n_nodes, dtype=bool)
        kernel = PropagationKernel(matrix, no_hubs, params)
        ((_, partial),) = kernel.run([source]).state_arrays()
        keys, retained = partial.retained
        assert np.all(retained <= exact[keys] + 1e-8)

    @given(random_digraphs())
    @settings(max_examples=40, deadline=None)
    def test_proposition_1_and_2_monotone_lower_bounds(self, graph):
        """Each batched BCA iteration increases every retained value and the
        k-th largest retained value never exceeds the exact k-th value."""
        matrix = sp.csc_matrix(transition_matrix(graph))
        params = IndexParams(capacity=min(5, graph.n_nodes), hub_budget=0).for_graph(
            graph.n_nodes
        )
        hub_mask = np.zeros(graph.n_nodes, dtype=bool)
        state = initial_node_state(0, False)
        exact = proximity_column(sp.csc_matrix(matrix), 0, tolerance=1e-9)
        k = min(3, graph.n_nodes)
        exact_kth = np.sort(exact)[-k]
        previous_kth = 0.0
        for _ in range(8):
            progressed = bca_iteration(state, matrix, hub_mask, params)
            retained = np.zeros(graph.n_nodes)
            for node, value in state.retained.items():
                retained[node] = value
            _, top_values = dense_top_k(retained, k)
            current_kth = top_values[-1] if top_values.size == k else 0.0
            assert current_kth >= previous_kth - 1e-12  # Proposition 1 (monotone)
            assert current_kth <= exact_kth + 1e-9  # Proposition 2 (lower bound)
            previous_kth = current_kth
            if not progressed:
                break

    @given(random_digraphs())
    @settings(max_examples=40, deadline=None)
    def test_bca_iteration_conserves_ink(self, graph):
        matrix = sp.csc_matrix(transition_matrix(graph))
        params = IndexParams(capacity=min(5, graph.n_nodes), hub_budget=0).for_graph(
            graph.n_nodes
        )
        hub_mask = np.zeros(graph.n_nodes, dtype=bool)
        state = initial_node_state(0, False)
        for _ in range(6):
            bca_iteration(state, matrix, hub_mask, params)
            total = (
                sum(state.retained.values())
                + sum(state.hub_ink.values())
                + state.residual_mass
            )
            assert abs(total - 1.0) < 1e-9
