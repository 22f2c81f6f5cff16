"""Tests for sparse-vector helpers."""

import numpy as np

from repro.utils.sparsetools import dense_top_k, top_k_descending


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


class TestTopKDescending:
    def test_padding_with_zeros(self):
        values = top_k_descending(np.array([0.4, 0.2]), 4)
        assert values.tolist() == [0.4, 0.2, 0.0, 0.0]

    def test_descending_order(self):
        values = top_k_descending(np.array([0.1, 0.5, 0.3]), 3)
        assert values.tolist() == [0.5, 0.3, 0.1]
