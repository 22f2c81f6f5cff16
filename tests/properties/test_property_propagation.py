"""Property tests for the propagation-kernel layer (ISSUE 4).

Two guarantees under random graphs and parameters:

1. the vectorized backend's states reconstruct proximity vectors within
   ``1e-12`` of the scalar backend's, with identical top-K *node sets*
   (modulo genuinely tied boundary values);
2. the scalar backend is bit-identical to the seed implementation — states,
   lower bounds and query statistics — which it preserves verbatim as the
   per-node primitives it is built from.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    IndexParams,
    PropagationKernel,
    ReverseTopKEngine,
    build_index,
    numba_available,
)
from repro.core.lbi import _compute_hub_matrix, default_hub_selection
from repro.core.propagation import (
    _HubExpansion,
    initial_node_state,
    materialize_lower_bounds,
    run_node_bca,
)
from repro.graph import DiGraph, transition_matrix


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


@st.composite
def index_params(draw, n_nodes: int):
    capacity = draw(st.integers(min_value=1, max_value=max(1, n_nodes)))
    hub_budget = draw(st.integers(min_value=0, max_value=n_nodes // 2))
    eta = draw(st.sampled_from([1e-2, 1e-3, 1e-4]))
    delta = draw(st.sampled_from([0.3, 0.1, 0.05]))
    block_size = draw(st.integers(min_value=1, max_value=6))
    return IndexParams(
        capacity=capacity,
        hub_budget=hub_budget,
        propagation_threshold=eta,
        residue_threshold=delta,
        block_size=block_size,
    )


def _topk_node_sets_match(vec_vector, sca_vector, k, atol=1e-9):
    """Tie-aware top-k node-set comparison between the two backends.

    Nodes strictly above the k-th scalar value must be in the vectorized
    top-k set, and the vectorized top-k set may not contain any node
    strictly below it — boundary ties (within ``atol``) may legitimately
    resolve either way.
    """
    k = min(k, sca_vector.size)
    kth = np.sort(sca_vector)[-k]
    vec_order = np.argsort(-vec_vector, kind="stable")[:k]
    vec_set = set(vec_order.tolist())
    must_include = np.flatnonzero(sca_vector > kth + atol)
    must_exclude = np.flatnonzero(sca_vector < kth - atol)
    assert set(must_include.tolist()) <= vec_set
    assert not (set(must_exclude.tolist()) & vec_set)


class TestBackendEquivalence:
    @given(random_digraphs(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_vectorized_reconstructions_match_scalar(self, graph, data):
        from tests.conftest import run_states

        params = data.draw(index_params(graph.n_nodes)).for_graph(graph.n_nodes)
        matrix = sp.csc_matrix(transition_matrix(graph))
        hubs = default_hub_selection(graph, params)
        hub_matrix, _, _ = _compute_hub_matrix(matrix, hubs, params)
        hub_mask = hubs.mask(graph.n_nodes)
        expansion = _HubExpansion(graph.n_nodes, hubs, hub_matrix)
        sources = [node for node in range(graph.n_nodes) if not hub_mask[node]]

        vectorized = run_states(PropagationKernel(
            matrix, hub_mask, params, hubs=hubs, hub_matrix=hub_matrix
        ), sources)
        scalar = run_states(PropagationKernel(
            matrix, hub_mask, params, hubs=hubs, hub_matrix=hub_matrix,
            backend="scalar",
        ), sources)

        for vec_state, sca_state in zip(vectorized, scalar):
            vec_vector = expansion.expand(vec_state)
            sca_vector = expansion.expand(sca_state)
            np.testing.assert_allclose(vec_vector, sca_vector, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                vec_state.lower_bounds, sca_state.lower_bounds, rtol=0, atol=1e-12
            )
            _topk_node_sets_match(vec_vector, sca_vector, params.capacity)

    @given(random_digraphs(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_scalar_backend_bit_identical_to_seed(self, graph, data):
        """The scalar backend replays the seed build loop exactly.

        The seed reference is reconstructed from the per-node primitives it
        was factored into (initial state -> run_node_bca -> materialize per
        node, hub states from the exact hub top-K) — states, lower bounds
        and the derived columnar statistics must match bit for bit.
        """
        params = data.draw(index_params(graph.n_nodes)).for_graph(graph.n_nodes)
        matrix = sp.csc_matrix(transition_matrix(graph))
        hubs = default_hub_selection(graph, params)
        index = build_index(
            graph, params, transition=matrix, hubs=hubs, backend="scalar"
        )
        hub_matrix, _, hub_top_k = _compute_hub_matrix(matrix, hubs, params)
        hub_mask = hubs.mask(graph.n_nodes)
        expansion = _HubExpansion(graph.n_nodes, hubs, hub_matrix)
        for node in range(graph.n_nodes):
            state = index.state(node)
            if hub_mask[node]:
                assert state.is_hub
                np.testing.assert_array_equal(state.lower_bounds, hub_top_k[node])
                continue
            reference = initial_node_state(node, False)
            run_node_bca(reference, matrix, hub_mask, params)
            materialize_lower_bounds(reference, expansion, params.capacity)
            assert state.residual == reference.residual
            assert state.retained == reference.retained
            assert state.hub_ink == reference.hub_ink
            assert state.iterations == reference.iterations
            np.testing.assert_array_equal(state.lower_bounds, reference.lower_bounds)

    @given(random_digraphs(), st.data())
    @settings(max_examples=15, deadline=None)
    def test_backends_answer_queries_identically(self, graph, data):
        # Both backends must produce the exact reverse top-k answer: compare
        # each against the LU oracle (tie-aware at the k-th boundary, where
        # membership legitimately depends on the floating-point path).
        from repro.rwr import ProximityLU

        from tests.conftest import assert_reverse_topk_consistent

        params = data.draw(index_params(graph.n_nodes)).for_graph(graph.n_nodes)
        matrix = transition_matrix(graph)
        exact_matrix = ProximityLU(matrix).matrix()
        k = data.draw(st.integers(min_value=1, max_value=params.capacity))
        vec_engine = ReverseTopKEngine(
            matrix, build_index(graph, params, transition=matrix)
        )
        sca_engine = ReverseTopKEngine(
            matrix, build_index(graph, params, transition=matrix, backend="scalar")
        )
        for query in range(graph.n_nodes):
            a = vec_engine.query(query, k, update_index=False)
            b = sca_engine.query(query, k, update_index=False)
            assert_reverse_topk_consistent(a.nodes, exact_matrix, query, k)
            assert_reverse_topk_consistent(b.nodes, exact_matrix, query, k)


@pytest.mark.skipif(not numba_available(), reason="numba not installed")
class TestNumbaBackendEquivalence:
    """The compiled backend must track the scalar reference like the
    vectorized one does: within 1e-12 on reconstructed vectors and lower
    bounds, with tie-aware identical top-K node sets."""

    @given(random_digraphs(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_numba_reconstructions_match_scalar(self, graph, data):
        from tests.conftest import run_states

        params = data.draw(index_params(graph.n_nodes)).for_graph(graph.n_nodes)
        matrix = sp.csc_matrix(transition_matrix(graph))
        hubs = default_hub_selection(graph, params)
        hub_matrix, _, _ = _compute_hub_matrix(matrix, hubs, params)
        hub_mask = hubs.mask(graph.n_nodes)
        expansion = _HubExpansion(graph.n_nodes, hubs, hub_matrix)
        sources = [node for node in range(graph.n_nodes) if not hub_mask[node]]

        compiled = run_states(PropagationKernel(
            matrix, hub_mask, params, hubs=hubs, hub_matrix=hub_matrix,
            backend="numba",
        ), sources)
        scalar = run_states(PropagationKernel(
            matrix, hub_mask, params, hubs=hubs, hub_matrix=hub_matrix,
            backend="scalar",
        ), sources)

        for jit_state, sca_state in zip(compiled, scalar):
            jit_vector = expansion.expand(jit_state)
            sca_vector = expansion.expand(sca_state)
            np.testing.assert_allclose(jit_vector, sca_vector, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                jit_state.lower_bounds, sca_state.lower_bounds, rtol=0, atol=1e-12
            )
            _topk_node_sets_match(jit_vector, sca_vector, params.capacity)

    @given(random_digraphs(), st.data())
    @settings(max_examples=10, deadline=None)
    def test_numba_scan_mode_answers_queries_exactly(self, graph, data):
        from repro.rwr import ProximityLU

        from tests.conftest import assert_reverse_topk_consistent

        params = data.draw(index_params(graph.n_nodes)).for_graph(graph.n_nodes)
        matrix = transition_matrix(graph)
        exact_matrix = ProximityLU(matrix).matrix()
        k = data.draw(st.integers(min_value=1, max_value=params.capacity))
        engine = ReverseTopKEngine(matrix, build_index(graph, params, transition=matrix))
        for query in range(graph.n_nodes):
            numpy_res = engine.query(query, k, update_index=False)
            jit_res = engine.query(query, k, update_index=False, scan_mode="numba")
            np.testing.assert_array_equal(jit_res.nodes, numpy_res.nodes)
            assert_reverse_topk_consistent(jit_res.nodes, exact_matrix, query, k)


class TestFloat32ScreenedScan:
    """Property check: float32-screened scanning is bit-identical to the
    float64 scan — answers and decision counters — under random graphs."""

    @given(random_digraphs(), st.data())
    @settings(max_examples=20, deadline=None)
    def test_screened_engine_bit_identical(self, graph, data):
        params = data.draw(index_params(graph.n_nodes)).for_graph(graph.n_nodes)
        matrix = transition_matrix(graph)
        k = data.draw(st.integers(min_value=1, max_value=params.capacity))
        index = build_index(graph, params, transition=matrix)
        baseline = ReverseTopKEngine(matrix, index)
        screened = ReverseTopKEngine(matrix, index, scan_precision="float32")
        for query in range(graph.n_nodes):
            a = baseline.query(query, k, update_index=False)
            b = screened.query(query, k, update_index=False)
            np.testing.assert_array_equal(a.nodes, b.nodes)
            assert a.statistics.n_candidates == b.statistics.n_candidates
            assert a.statistics.n_hits == b.statistics.n_hits
            assert a.statistics.n_exact_shortcut == b.statistics.n_exact_shortcut
            assert (
                a.statistics.n_pruned_immediately
                == b.statistics.n_pruned_immediately
            )
            assert a.statistics.n_refined_nodes == b.statistics.n_refined_nodes
