"""Tests for the compiled sparse kernels and the CSC column splice.

Every kernel runs twice: once over SciPy's compiled routines and once over
the NumPy fallback taken when those routines are missing.  Both must match a
dense reference, and the two must agree bit for bit with each other.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.utils import sparsetools
from repro.utils.sparsetools import (
    csc_matvec,
    csr_matvec,
    gather_rows,
    splice_csc_columns,
)


@pytest.fixture(params=["compiled", "fallback"])
def backend(request, monkeypatch):
    if request.param == "fallback":
        monkeypatch.setattr(sparsetools, "_compiled", None)
    elif sparsetools._compiled is None:  # pragma: no cover - depends on SciPy layout
        pytest.fail("scipy.sparse._sparsetools is missing; only the fallback runs")
    return request.param


def random_matrix(seed, shape=(9, 7), density=0.35, fmt="csr", index_dtype=np.int32):
    rng = np.random.default_rng(seed)
    matrix = sp.random(
        *shape, density=density, format=fmt, random_state=rng, dtype=np.float64
    )
    matrix.sort_indices()
    matrix.indptr = matrix.indptr.astype(index_dtype)
    matrix.indices = matrix.indices.astype(index_dtype)
    return matrix


def with_fallback(monkeypatch, function, *args):
    """Run ``function`` with the compiled routines hidden."""
    with monkeypatch.context() as patch:
        patch.setattr(sparsetools, "_compiled", None)
        return function(*args)


class TestCsrMatvec:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_matches_the_dense_product(self, backend, seed, index_dtype):
        matrix = random_matrix(seed, index_dtype=index_dtype)
        x = np.random.default_rng(seed + 10).random(matrix.shape[1])
        out = np.zeros(matrix.shape[0])
        csr_matvec(*matrix.shape, matrix.indptr, matrix.indices, matrix.data, x, out)
        np.testing.assert_allclose(out, matrix.toarray() @ x, rtol=1e-14, atol=0)

    def test_adds_into_out(self, backend):
        matrix = random_matrix(3)
        x = np.arange(matrix.shape[1], dtype=np.float64)
        start = np.full(matrix.shape[0], 2.5)
        out = start.copy()
        csr_matvec(*matrix.shape, matrix.indptr, matrix.indices, matrix.data, x, out)
        np.testing.assert_allclose(out, start + matrix.toarray() @ x, rtol=1e-14)

    def test_suffix_of_rows_through_a_pointer_view(self, backend):
        matrix = random_matrix(4, shape=(10, 6), density=0.5)
        first = 4
        assert matrix.indptr[first] > 0
        x = np.random.default_rng(5).random(matrix.shape[1])
        out = np.zeros(matrix.shape[0] - first)
        csr_matvec(
            matrix.shape[0] - first,
            matrix.shape[1],
            matrix.indptr[first:],
            matrix.indices,
            matrix.data,
            x,
            out,
        )
        np.testing.assert_allclose(out, matrix.toarray()[first:] @ x, rtol=1e-14)

    def test_matrix_without_entries_leaves_out_unchanged(self, backend):
        matrix = sp.csr_matrix((5, 4))
        out = np.arange(5, dtype=np.float64)
        csr_matvec(5, 4, matrix.indptr, matrix.indices, matrix.data, np.ones(4), out)
        assert out.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_fallback_is_bit_identical(self, monkeypatch):
        matrix = random_matrix(6, shape=(40, 30), density=0.3)
        x = np.random.default_rng(7).random(30)
        compiled = np.random.default_rng(8).random(40)
        fallback = compiled.copy()
        args = (40, 30, matrix.indptr, matrix.indices, matrix.data, x)
        csr_matvec(*args, compiled)
        with_fallback(monkeypatch, csr_matvec, *args, fallback)
        assert np.array_equal(compiled, fallback)


class TestGatherRows:
    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_listed_rows_in_listed_order(self, backend, index_dtype):
        matrix = random_matrix(0, shape=(8, 6), density=0.5, index_dtype=index_dtype)
        rows = np.array([5, 0, 3])
        pointers, indices, data = gather_rows(
            matrix.indptr, matrix.indices, matrix.data, rows
        )
        gathered = sp.csr_matrix((data, indices, pointers), shape=(3, 6))
        np.testing.assert_array_equal(gathered.toarray(), matrix.toarray()[rows])
        assert pointers.dtype == matrix.indptr.dtype

    def test_each_row_keeps_its_stored_entry_order(self, backend):
        indptr = np.array([0, 3, 5], dtype=np.int32)
        indices = np.array([4, 0, 2, 3, 1], dtype=np.int32)
        data = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        pointers, out_indices, out_data = gather_rows(
            indptr, indices, data, np.array([1, 0])
        )
        assert pointers.tolist() == [0, 2, 5]
        assert out_indices.tolist() == [3, 1, 4, 0, 2]
        assert out_data.tolist() == [4.0, 5.0, 1.0, 2.0, 3.0]

    def test_repeated_rows_are_gathered_twice(self, backend):
        matrix = random_matrix(1, shape=(5, 5), density=0.6)
        rows = np.array([2, 2, 4, 2])
        pointers, indices, data = gather_rows(
            matrix.indptr, matrix.indices, matrix.data, rows
        )
        gathered = sp.csr_matrix((data, indices, pointers), shape=(4, 5))
        np.testing.assert_array_equal(gathered.toarray(), matrix.toarray()[rows])

    def test_no_rows(self, backend):
        matrix = random_matrix(2)
        pointers, indices, data = gather_rows(
            matrix.indptr, matrix.indices, matrix.data, np.empty(0, dtype=np.int64)
        )
        assert pointers.tolist() == [0]
        assert indices.size == 0 and data.size == 0

    def test_rows_without_entries(self, backend):
        indptr = np.array([0, 0, 2, 2], dtype=np.int32)
        indices = np.array([0, 1], dtype=np.int32)
        data = np.array([0.5, 0.25])
        pointers, out_indices, out_data = gather_rows(
            indptr, indices, data, np.array([0, 2, 1, 0])
        )
        assert pointers.tolist() == [0, 0, 0, 2, 2]
        assert out_indices.tolist() == [0, 1]
        assert out_data.tolist() == [0.5, 0.25]

    def test_outputs_are_fresh_arrays(self, backend):
        matrix = random_matrix(3, shape=(6, 6), density=0.5)
        before_indices = matrix.indices.copy()
        before_data = matrix.data.copy()
        _, indices, data = gather_rows(
            matrix.indptr, matrix.indices, matrix.data, np.arange(6)
        )
        indices[:] = 0
        data[:] = -1.0
        assert np.array_equal(matrix.indices, before_indices)
        assert np.array_equal(matrix.data, before_data)

    def test_fallback_is_bit_identical(self, monkeypatch):
        matrix = random_matrix(4, shape=(30, 30), density=0.2)
        rows = np.random.default_rng(9).integers(0, 30, size=25)
        args = (matrix.indptr, matrix.indices, matrix.data, rows)
        compiled = gather_rows(*args)
        fallback = with_fallback(monkeypatch, gather_rows, *args)
        for ours, theirs in zip(compiled, fallback):
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)


class TestCscMatvec:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_dense_product(self, backend, seed):
        matrix = random_matrix(seed, shape=(8, 11), fmt="csc")
        x = np.random.default_rng(seed + 20).random(matrix.shape[1])
        out = np.zeros(matrix.shape[0])
        csc_matvec(*matrix.shape, matrix.indptr, matrix.indices, matrix.data, x, out)
        np.testing.assert_allclose(out, matrix.toarray() @ x, rtol=1e-14, atol=0)

    def test_adds_into_out(self, backend):
        matrix = random_matrix(3, fmt="csc")
        x = np.linspace(-1.0, 1.0, matrix.shape[1])
        start = np.linspace(3.0, 4.0, matrix.shape[0])
        out = start.copy()
        csc_matvec(*matrix.shape, matrix.indptr, matrix.indices, matrix.data, x, out)
        np.testing.assert_allclose(out, start + matrix.toarray() @ x, rtol=1e-14)

    def test_leading_columns_only(self, backend):
        matrix = random_matrix(4, shape=(6, 9), density=0.5, fmt="csc")
        x = np.random.default_rng(4).random(9)
        out = np.zeros(6)
        csc_matvec(6, 4, matrix.indptr, matrix.indices, matrix.data, x, out)
        np.testing.assert_allclose(out, matrix.toarray()[:, :4] @ x[:4], rtol=1e-14)

    def test_entries_into_one_row_add_in_column_entry_order(self, backend):
        # Rounding makes the order visible: 1 + 1e-16 + 1e-16 - 1 differs
        # from (1e-16 + 1e-16) + 1 - 1 in float64.
        indptr = np.array([0, 1, 2, 3], dtype=np.int32)
        indices = np.zeros(3, dtype=np.int32)
        data = np.array([1.0, 1e-16, 1e-16])
        out = np.zeros(1)
        csc_matvec(1, 3, indptr, indices, data, np.ones(3), out)
        expected = 0.0
        for term in data:
            expected += term
        assert out[0] == expected

    def test_fallback_is_bit_identical(self, monkeypatch):
        matrix = random_matrix(5, shape=(25, 40), density=0.3, fmt="csc")
        x = np.random.default_rng(11).random(40)
        compiled = np.random.default_rng(12).random(25)
        fallback = compiled.copy()
        args = (25, 40, matrix.indptr, matrix.indices, matrix.data, x)
        csc_matvec(*args, compiled)
        with_fallback(monkeypatch, csc_matvec, *args, fallback)
        assert np.array_equal(compiled, fallback)


class TestSpliceCscColumns:
    @staticmethod
    def replacement(seed, n_rows):
        rng = np.random.default_rng(seed)
        rows = np.sort(rng.choice(n_rows, size=rng.integers(0, n_rows + 1), replace=False))
        return rows, rng.random(rows.size)

    @pytest.mark.parametrize(
        "columns",
        [[0], [6], [3], [2, 3], [0, 6], [1, 3, 5], list(range(7))],
        ids=["first", "last", "middle", "adjacent", "both-ends", "spread", "all"],
    )
    def test_equals_dense_column_replacement(self, columns):
        matrix = random_matrix(0, shape=(8, 7), density=0.4, fmt="csc")
        replacements = {j: self.replacement(100 + j, 8) for j in columns}
        expected = matrix.toarray()
        for j, (rows, data) in replacements.items():
            expected[:, j] = 0.0
            expected[rows, j] = data
        spliced = splice_csc_columns(matrix, replacements)
        assert spliced.shape == matrix.shape
        np.testing.assert_array_equal(spliced.toarray(), expected)

    def test_untouched_columns_keep_their_entries_byte_for_byte(self):
        matrix = random_matrix(1, shape=(10, 8), density=0.5, fmt="csc")
        spliced = splice_csc_columns(matrix, {2: self.replacement(3, 10), 5: self.replacement(4, 10)})
        for j in (0, 1, 3, 4, 6, 7):
            old = slice(matrix.indptr[j], matrix.indptr[j + 1])
            new = slice(spliced.indptr[j], spliced.indptr[j + 1])
            assert np.array_equal(spliced.indices[new], matrix.indices[old])
            assert np.array_equal(spliced.data[new], matrix.data[old])

    def test_no_replacements_copies_the_matrix(self):
        matrix = random_matrix(2, fmt="csc")
        spliced = splice_csc_columns(matrix, {})
        assert spliced is not matrix
        assert np.array_equal(spliced.indptr, matrix.indptr)
        assert np.array_equal(spliced.indices, matrix.indices)
        assert np.array_equal(spliced.data, matrix.data)

    def test_a_column_can_be_emptied(self):
        matrix = sp.csc_matrix(np.ones((3, 3)))
        spliced = splice_csc_columns(
            matrix, {1: (np.empty(0, dtype=np.int32), np.empty(0))}
        )
        assert spliced.toarray().tolist() == [[1, 0, 1], [1, 0, 1], [1, 0, 1]]
        assert spliced.nnz == 6

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_index_arrays_share_one_compact_dtype(self, index_dtype):
        # The compiled kernels need indices and pointers of one dtype.
        matrix = random_matrix(3, fmt="csc", index_dtype=index_dtype)
        rows = np.array([0, 4], dtype=np.int64 if index_dtype == np.int32 else np.int32)
        spliced = splice_csc_columns(matrix, {1: (rows, np.array([0.5, 0.25]))})
        assert spliced.indices.dtype == spliced.indptr.dtype == np.int32
        assert spliced.indices[spliced.indptr[1]:spliced.indptr[2]].tolist() == [0, 4]

    def test_key_order_does_not_matter(self):
        matrix = random_matrix(4, shape=(6, 6), density=0.5, fmt="csc")
        parts = {j: self.replacement(50 + j, 6) for j in (4, 0, 2)}
        forward = splice_csc_columns(matrix, dict(sorted(parts.items())))
        backward = splice_csc_columns(matrix, dict(sorted(parts.items(), reverse=True)))
        assert np.array_equal(forward.indptr, backward.indptr)
        assert np.array_equal(forward.indices, backward.indices)
        assert np.array_equal(forward.data, backward.data)

    def test_input_matrix_is_not_modified(self):
        matrix = random_matrix(5, fmt="csc")
        before = (matrix.indptr.copy(), matrix.indices.copy(), matrix.data.copy())
        splice_csc_columns(matrix, {0: self.replacement(6, 9), 3: self.replacement(7, 9)})
        assert np.array_equal(matrix.indptr, before[0])
        assert np.array_equal(matrix.indices, before[1])
        assert np.array_equal(matrix.data, before[2])
