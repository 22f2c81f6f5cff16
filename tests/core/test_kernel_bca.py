"""BCA invariants of the propagation kernel, checked against exact proximities.

The kernel is the one BCA implementation the index builds with, so the
classic properties of Berkhin's algorithm are asserted on it directly:
retained ink never exceeds the true proximity, retained + residual (+ hub)
ink is one unit, the thresholds bound what stays behind, and tight
thresholds converge to the exact proximity vector.  Every property runs on
four graph families (web, trust, weighted co-authorship and a hub-free
Erdős–Rényi graph) against the LU oracle.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import IndexParams, PropagationKernel
from repro.core.index import expand_state
from repro.core.lbi import _compute_hub_matrix, default_hub_selection
from repro.graph import erdos_renyi_graph, transition_matrix
from repro.rwr import ProximityLU
from repro.utils.sparsetools import top_k_descending


@pytest.fixture(scope="module", params=["web", "trust", "coauthor", "random"])
def family(request, small_web_graph, small_trust_graph, weighted_coauthor_graph):
    """``(graph, transition, exact P, three sources)`` of one graph family."""
    graph = {
        "web": small_web_graph,
        "trust": small_trust_graph,
        "coauthor": weighted_coauthor_graph[0],
        "random": erdos_renyi_graph(50, 0.08, seed=9),
    }[request.param]
    matrix = sp.csc_matrix(transition_matrix(graph))
    n = graph.n_nodes
    return graph, matrix, ProximityLU(matrix).matrix(), (0, n // 3, 2 * n // 3)


def _hub_free_kernel(matrix, **params):
    n = matrix.shape[0]
    params = IndexParams(capacity=10, hub_budget=0, **params).for_graph(n)
    return PropagationKernel(matrix, np.zeros(n, dtype=bool), params)


def _run(kernel, source):
    ((_, arrays),) = kernel.run([source]).state_arrays()
    return arrays


def _dense(segment, n):
    keys, values = segment
    vector = np.zeros(n)
    vector[keys] = values
    return vector


def _hub_kernel(graph, matrix):
    params = IndexParams(
        capacity=10, hub_budget=4, propagation_threshold=1e-4, residue_threshold=1e-3
    ).for_graph(graph.n_nodes)
    hubs = default_hub_selection(graph, params)
    hub_matrix, _, _ = _compute_hub_matrix(matrix, hubs, params)
    hub_mask = hubs.mask(graph.n_nodes)
    kernel = PropagationKernel(
        matrix, hub_mask, params, hubs=hubs, hub_matrix=hub_matrix
    )
    sources = [node for node in range(graph.n_nodes) if not hub_mask[node]][:3]
    return kernel, hubs, hub_matrix, sources


class TestKernelAgainstExactProximity:
    def test_retained_is_lower_bound(self, family):
        _, matrix, exact, sources = family
        kernel = _hub_free_kernel(matrix, propagation_threshold=1e-3)
        for source in sources:
            retained = _dense(_run(kernel, source).retained, matrix.shape[0])
            assert np.all(retained <= exact[:, source] + 1e-9)

    def test_converges_to_exact_with_tight_threshold(self, family):
        _, matrix, exact, sources = family
        kernel = _hub_free_kernel(
            matrix, propagation_threshold=1e-13, residue_threshold=1e-10
        )
        for source in sources:
            retained = _dense(_run(kernel, source).retained, matrix.shape[0])
            np.testing.assert_allclose(retained, exact[:, source], atol=1e-7)

    def test_mass_conservation(self, family):
        _, matrix, _, sources = family
        kernel = _hub_free_kernel(matrix, propagation_threshold=1e-5)
        for source in sources:
            state = _run(kernel, source)
            total = state.retained[1].sum() + state.residual[1].sum()
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_residual_mass_below_threshold(self, family):
        _, matrix, _, sources = family
        kernel = _hub_free_kernel(
            matrix, propagation_threshold=1e-12, residue_threshold=1e-4
        )
        for source in sources:
            assert _run(kernel, source).residual[1].sum() <= 1e-4 + 1e-12

    def test_no_residue_above_threshold_at_termination(self, family):
        _, matrix, _, sources = family
        eta = 1e-4
        kernel = _hub_free_kernel(
            matrix, propagation_threshold=eta, residue_threshold=1e-12
        )
        for source in sources:
            assert _run(kernel, source).residual[1].max() < eta

    def test_smaller_threshold_gives_tighter_bound(self, family):
        _, matrix, _, sources = family
        coarse = _hub_free_kernel(
            matrix, propagation_threshold=1e-2, residue_threshold=1e-12
        )
        fine = _hub_free_kernel(
            matrix, propagation_threshold=1e-6, residue_threshold=1e-12
        )
        for source in sources:
            assert (
                _run(fine, source).retained[1].sum()
                >= _run(coarse, source).retained[1].sum() - 1e-12
            )

    def test_iteration_cap_respected(self, family):
        _, matrix, exact, sources = family
        kernel = _hub_free_kernel(
            matrix,
            propagation_threshold=1e-12,
            residue_threshold=1e-12,
            max_index_iterations=3,
        )
        for source in sources:
            state = _run(kernel, source)
            assert state.iterations == 3
            assert not state.is_exact
            retained = _dense(state.retained, matrix.shape[0])
            assert np.all(retained <= exact[:, source] + 1e-9)

    def test_hub_ink_conserves_mass(self, family):
        graph, matrix, _, _ = family
        kernel, _, _, sources = _hub_kernel(graph, matrix)
        for source in sources:
            state = _run(kernel, source)
            total = sum(plane[1].sum() for plane in (
                state.retained, state.residual, state.hub_ink
            ))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_expanded_state_is_lower_bound(self, family):
        graph, matrix, exact, _ = family
        kernel, hubs, hub_matrix, sources = _hub_kernel(graph, matrix)
        for source in sources:
            state = _run(kernel, source)
            expanded = expand_state(state, hubs, hub_matrix, graph.n_nodes)
            assert np.all(expanded <= exact[:, source] + 1e-9)

    def test_lower_bounds_are_top_k_of_expansion(self, family):
        graph, matrix, _, _ = family
        kernel, hubs, hub_matrix, sources = _hub_kernel(graph, matrix)
        capacity = kernel.params.capacity
        for source in sources:
            state = _run(kernel, source)
            expanded = expand_state(state, hubs, hub_matrix, graph.n_nodes)
            np.testing.assert_allclose(
                state.lower_bounds,
                top_k_descending(expanded, capacity),
                rtol=0,
                atol=1e-15,
            )


def _near_half_update_transition() -> sp.csc_matrix:
    """A cyclic transition whose residues regrow on already-pushed nodes.

    Pushing node 3 sends ink straight back to nodes 0 and 1, so every
    iteration mixes fresh arrivals into entries pushed the round before.
    Column ``j`` lists the out-distribution of node ``j``.
    """
    transition = np.zeros((5, 5))
    transition[[1, 2, 3], 0] = (0.3, 0.4, 0.3)
    transition[2, 1] = 1.0
    transition[[3, 4], 2] = (0.55, 0.45)
    transition[[0, 1], 3] = (0.5, 0.5)
    transition[0, 4] = 1.0
    return sp.csc_matrix(transition)


def _reference_synchronous_push(dense, source, alpha, eta, delta, max_iterations):
    """Independent dense reference: each round pushes every residue >= eta."""
    residual = np.zeros(dense.shape[0])
    retained = np.zeros(dense.shape[0])
    residual[source] = 1.0
    iterations = 0
    while (
        residual.sum() > delta
        and (residual >= eta).any()
        and iterations < max_iterations
    ):
        amounts = np.where(residual >= eta, residual, 0.0)
        retained += alpha * amounts
        residual = residual - amounts + dense @ ((1.0 - alpha) * amounts)
        iterations += 1
    return retained, residual


class TestSynchronousPushDiscipline:
    def test_prefixes_follow_reference_trajectory(self):
        # Every iteration-budget prefix of the kernel's run must match the
        # dense reference that pushes all residue above eta each round.
        transition = _near_half_update_transition()
        dense = transition.toarray()
        for budget in range(1, 25):
            kernel = _hub_free_kernel(
                transition,
                alpha=0.3,
                propagation_threshold=1e-12,
                residue_threshold=1e-12,
                max_index_iterations=budget,
            )
            state = _run(kernel, 0)
            expected_retained, expected_residual = _reference_synchronous_push(
                dense, 0, 0.3, 1e-12, 1e-12, budget
            )
            assert state.iterations == budget
            np.testing.assert_allclose(
                _dense(state.retained, 5), expected_retained, rtol=0, atol=1e-13
            )
            np.testing.assert_allclose(
                _dense(state.residual, 5), expected_residual, rtol=0, atol=1e-13
            )

    def test_converges_exactly_on_near_half_graph(self):
        transition = _near_half_update_transition()
        exact = ProximityLU(transition, alpha=0.3).column(0)
        kernel = _hub_free_kernel(
            transition,
            alpha=0.3,
            propagation_threshold=1e-13,
            residue_threshold=1e-10,
        )
        state = _run(kernel, 0)
        np.testing.assert_allclose(_dense(state.retained, 5), exact, atol=1e-7)
        # Ink conservation: retained plus outstanding residue is one unit.
        total = state.retained[1].sum() + state.residual[1].sum()
        assert total == pytest.approx(1.0, abs=1e-9)
        assert state.residual[1].sum() <= 1e-10 + 1e-15

    def test_two_node_cycle_needs_the_analytic_iteration_count(self):
        # Residue halves on every push: 2^-k <= 1e-6 after exactly 20 rounds.
        transition = sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        kernel = _hub_free_kernel(
            transition,
            alpha=0.5,
            propagation_threshold=1e-12,
            residue_threshold=1e-6,
        )
        state = _run(kernel, 0)
        assert state.iterations == 20
        assert state.residual[1].sum() <= 1e-6

    def test_rough_threshold_leaves_residue(self, small_transition):
        kernel = _hub_free_kernel(small_transition, residue_threshold=0.5)
        state = _run(kernel, 1)
        assert not state.is_exact
        assert 0.0 < state.residual[1].sum() <= 0.5
