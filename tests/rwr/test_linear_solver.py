"""Tests for the direct (LU) proximity solvers."""

import numpy as np
import pytest

from repro.core.pmpn import proximity_to_node
from repro.rwr import ProximityLU, proximity_column


class TestProximityLU:
    def test_column_matches_power_method(self, small_transition):
        lu = ProximityLU(small_transition)
        np.testing.assert_allclose(
            lu.column(4), proximity_column(small_transition, 4), atol=1e-8
        )

    def test_row_matches_pmpn(self, small_transition):
        lu = ProximityLU(small_transition)
        np.testing.assert_allclose(
            lu.row(4), proximity_to_node(small_transition, 4).proximities, atol=1e-8
        )

    def test_matrix_consistency(self, small_transition):
        lu = ProximityLU(small_transition)
        matrix = lu.matrix()
        np.testing.assert_allclose(matrix[:, 3], lu.column(3), atol=1e-10)
        np.testing.assert_allclose(matrix[7, :], lu.row(7), atol=1e-10)

    def test_matrix_columns_sum_to_one(self, small_transition):
        matrix = ProximityLU(small_transition).matrix()
        np.testing.assert_allclose(matrix.sum(axis=0), 1.0, atol=1e-9)

    def test_rejects_non_square(self):
        import scipy.sparse as sp

        with pytest.raises(ValueError):
            ProximityLU(sp.csc_matrix(np.ones((2, 3))))

    def test_alpha_parameter_respected(self, small_transition):
        default = ProximityLU(small_transition).column(0)
        stronger_restart = ProximityLU(small_transition, alpha=0.5).column(0)
        assert stronger_restart[0] > default[0]
