"""Tests for sparse-vector helpers."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.utils.sparsetools import (
    dense_top_k,
    l1_norm,
    sparse_column_to_dense,
    sparse_top_k,
    sparse_vector_from_dict,
    top_k_descending,
)


class TestL1Norm:
    def test_dense(self):
        assert l1_norm(np.array([1.0, -2.0, 3.0])) == pytest.approx(6.0)

    def test_sparse(self):
        vector = sp.csc_matrix(np.array([[0.0], [2.0], [-1.0]]))
        assert l1_norm(vector) == pytest.approx(3.0)

    def test_empty_sparse(self):
        assert l1_norm(sp.csc_matrix((5, 1))) == 0.0


class TestSparseVectorFromDict:
    def test_basic(self):
        vector = sparse_vector_from_dict({2: 0.5, 0: 0.25}, 4)
        dense = vector.toarray().ravel()
        assert dense.tolist() == [0.25, 0.0, 0.5, 0.0]

    def test_empty(self):
        vector = sparse_vector_from_dict({}, 3)
        assert vector.nnz == 0
        assert vector.shape == (3, 1)


class TestDenseTopK:
    def test_values_descending(self):
        indices, values = dense_top_k(np.array([0.1, 0.9, 0.5, 0.7]), 3)
        assert values.tolist() == [0.9, 0.7, 0.5]
        assert indices.tolist() == [1, 3, 2]

    def test_k_larger_than_size(self):
        indices, values = dense_top_k(np.array([2.0, 1.0]), 5)
        assert len(values) == 2

    def test_k_zero(self):
        indices, values = dense_top_k(np.array([1.0]), 0)
        assert len(indices) == 0

    def test_deterministic_tie_break_by_index(self):
        indices, _ = dense_top_k(np.array([0.5, 0.5, 0.5]), 2)
        assert indices.tolist() == [0, 1]


class TestSparseTopK:
    def test_matches_dense(self):
        dense = np.array([0.0, 0.3, 0.0, 0.8, 0.1])
        column = sp.csc_matrix(dense.reshape(-1, 1))
        sparse_idx, sparse_val = sparse_top_k(column, 2)
        dense_idx, dense_val = dense_top_k(dense, 2)
        assert sparse_idx.tolist() == dense_idx.tolist()
        assert sparse_val.tolist() == pytest.approx(dense_val.tolist())

    def test_empty_column(self):
        indices, values = sparse_top_k(sp.csc_matrix((4, 1)), 3)
        assert len(indices) == 0

    def test_accepts_dense_input(self):
        indices, values = sparse_top_k(np.array([1.0, 2.0]), 1)
        assert indices.tolist() == [1]


class TestTopKDescending:
    def test_padding_with_zeros(self):
        values = top_k_descending(np.array([0.4, 0.2]), 4)
        assert values.tolist() == [0.4, 0.2, 0.0, 0.0]

    def test_descending_order(self):
        values = top_k_descending(np.array([0.1, 0.5, 0.3]), 3)
        assert values.tolist() == [0.5, 0.3, 0.1]


class TestConversions:
    def test_sparse_column_to_dense(self):
        column = sp.csc_matrix(np.array([[1.0], [0.0], [2.0]]))
        assert sparse_column_to_dense(column).tolist() == [1.0, 0.0, 2.0]

    def test_dense_passthrough_checks_size(self):
        with pytest.raises(ValueError):
            sparse_column_to_dense(np.array([1.0, 2.0]), size=3)
