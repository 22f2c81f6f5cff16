"""Tests for the materialised proximity matrix and its forward top-k accessors.

``ProximityMatrix`` is the ground truth behind the brute-force baselines, so
its top-k, k-th value and reverse top-k accessors are checked against the
definition on the LU-exact matrix.
"""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.graph import ring_graph, transition_matrix
from repro.rwr import ProximityLU, ProximityMatrix
from repro.utils.sparsetools import dense_top_k


@pytest.fixture(scope="module")
def power_matrix(small_transition):
    """``P`` as the brute-force baseline builds it: power method per column."""
    return ProximityMatrix.from_transition(small_transition, tolerance=1e-12)


class TestProximityMatrixWrapper:
    def test_reverse_top_k_matches_definition(self, small_exact_matrix):
        wrapper = ProximityMatrix(small_exact_matrix)
        k = 3
        answer = set(wrapper.reverse_top_k(5, k).tolist())
        for node in range(wrapper.n_nodes):
            column = small_exact_matrix[:, node]
            kth = np.sort(column)[-k]
            if column[5] > kth + 1e-12:
                assert node in answer

    def test_top_k_descending(self, small_exact_matrix):
        wrapper = ProximityMatrix(small_exact_matrix)
        _, values = wrapper.top_k(0, 5)
        assert all(values[i] >= values[i + 1] for i in range(4))

    def test_proximity_accessor(self, small_exact_matrix):
        wrapper = ProximityMatrix(small_exact_matrix)
        assert wrapper.proximity(2, 3) == pytest.approx(small_exact_matrix[3, 2])

    def test_kth_value(self, small_exact_matrix):
        wrapper = ProximityMatrix(small_exact_matrix)
        _, values = wrapper.top_k(1, 4)
        assert wrapper.kth_value(1, 4) == pytest.approx(values[-1])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            ProximityMatrix(np.ones((2, 3)))


class TestForwardTopK:
    """Forward top-k over the power-method matrix, against the LU oracle."""

    @pytest.mark.parametrize("node", [0, 5, 30])
    def test_matches_exact_matrix(self, power_matrix, small_exact_matrix, node):
        ids, values = power_matrix.top_k(node, 5)
        expected_ids, expected_values = dense_top_k(small_exact_matrix[:, node], 5)
        np.testing.assert_allclose(values, expected_values, atol=1e-7)
        # Sets must match even when close values swap order.
        assert set(ids.tolist()) == set(expected_ids.tolist())

    def test_values_descending(self, power_matrix):
        _, values = power_matrix.top_k(3, 8)
        assert all(values[i] >= values[i + 1] for i in range(len(values) - 1))

    def test_source_keeps_at_least_restart_mass(self, power_matrix):
        # The source retains at least alpha of the walk mass, so it always
        # appears among its own strongest proximities (though hubs may beat it).
        ids, values = power_matrix.top_k(12, 10)
        source_value = dict(zip(ids.tolist(), values.tolist())).get(12, 0.0)
        assert source_value >= 0.15 - 1e-9

    def test_invalid_k(self, power_matrix):
        with pytest.raises(InvalidParameterError):
            power_matrix.top_k(0, 10_000)

    def test_kth_value_matches_sorted_column(self, power_matrix, small_exact_matrix):
        expected = np.sort(small_exact_matrix[:, 8])[-3]
        assert power_matrix.kth_value(8, 3) == pytest.approx(expected, abs=1e-8)

    def test_columns_are_distributions(self, power_matrix):
        np.testing.assert_allclose(power_matrix.values.sum(axis=0), 1.0, atol=1e-8)
        assert power_matrix.values.min() >= 0.0

    def test_row_is_transposed_column_view(self, power_matrix):
        np.testing.assert_array_equal(
            power_matrix.row(4), power_matrix.values[4, :]
        )
        assert power_matrix.proximity(2, 4) == power_matrix.row(4)[2]

    def test_nbytes_is_dense_footprint(self, power_matrix):
        n = power_matrix.n_nodes
        assert power_matrix.nbytes() == n * n * 8


class TestReverseTopKGroundTruth:
    @pytest.mark.parametrize("query", [0, 7, 22])
    def test_answer_is_every_node_ranking_query_in_its_top_k(
        self, power_matrix, small_exact_matrix, query
    ):
        k = 5
        answer = set(power_matrix.reverse_top_k(query, k).tolist())
        for node in range(power_matrix.n_nodes):
            column = small_exact_matrix[:, node]
            kth = np.sort(column)[-k]
            if column[query] > kth + 1e-9:
                assert node in answer
            elif column[query] < kth - 1e-9:
                assert node not in answer

    def test_k_equal_n_answers_every_node(self, power_matrix):
        # With k = n every node ranks every other, so the answer is all nodes.
        n = power_matrix.n_nodes
        assert power_matrix.reverse_top_k(9, n).tolist() == list(range(n))


class TestRingSymmetry:
    """On a ring every node is equivalent: the PageRank-style checks of ``P``."""

    @pytest.fixture(scope="class")
    def ring(self):
        return ProximityLU(transition_matrix(ring_graph(8))).matrix()

    def test_columns_are_rotations(self, ring):
        for node in range(8):
            np.testing.assert_allclose(
                ring[:, node], np.roll(ring[:, 0], node), atol=1e-12
            )

    def test_uniform_restart_gives_uniform_proximity(self, ring):
        # Averaging the proximity vectors over a uniform restart distribution
        # is global PageRank, which is uniform on a ring.
        uniform = np.full(8, 1 / 8)
        np.testing.assert_allclose(ring @ uniform, uniform, atol=1e-12)
