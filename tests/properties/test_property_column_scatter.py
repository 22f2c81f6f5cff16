"""A refinement step's column push, bit for bit against ``np.add.at``.

:func:`~repro.core.propagation._scatter_columns` gathers CSC columns and
adds them into a dense vector with SciPy's compiled ``csr_row_index`` and
``csc_matvec``.  The oracle is :func:`tests.reference.scatter_columns`: the
storage positions of the listed columns, then ``np.add.at`` in that order.

1. Random matrices (int32 and int64 indices, unsorted entries, empty
   columns) and distinct columns in random order, into a zero ``out`` (the
   residual) and a non-zero one (hub expansion into ``v``): ``out`` is
   ``np.array_equal`` to the oracle's and the returned rows equal its rows
   in order — on the compiled kernels and on their NumPy fallback alike.
2. Whole ``PropagationKernel.step`` calls leave the same support, in the
   same order, and the same floats as steps pushed by the oracle: the
   support's order fixes every later step's accumulation order.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import IndexParams, ReverseTopKEngine
from repro.core import propagation
from repro.core.propagation import _scatter_columns
from repro.graph import copying_web_graph
from repro.utils import sparsetools

from tests.reference import scatter_columns


@st.composite
def scatter_cases(draw):
    """``(matrix, columns, scales, out)`` for one column push."""
    n = draw(st.integers(min_value=1, max_value=24))
    m = draw(st.integers(min_value=1, max_value=12))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10_000)))
    mask = rng.random((n, m)) < draw(st.floats(min_value=0.0, max_value=0.8))
    if draw(st.booleans()):
        mask[:, rng.integers(m)] = False  # a column with no stored entries
    # Magnitudes 12 decades apart: a sum's float depends on its order.
    weights = rng.random((n, m)) * 10.0 ** rng.integers(-12, 1, (n, m))
    matrix = sp.csc_matrix(np.where(mask, weights, 0.0))
    if draw(st.booleans()):  # entries stored out of row order
        for j in range(m):
            lo, hi = matrix.indptr[j], matrix.indptr[j + 1]
            order = lo + rng.permutation(hi - lo)
            matrix.indices[lo:hi] = matrix.indices[order]
            matrix.data[lo:hi] = matrix.data[order]
    index_dtype = draw(st.sampled_from([np.int32, np.int64]))
    matrix.indptr = matrix.indptr.astype(index_dtype)
    matrix.indices = matrix.indices.astype(index_dtype)
    columns = np.asarray(
        draw(st.lists(st.integers(0, m - 1), unique=True, max_size=m)),
        dtype=draw(st.sampled_from([np.int32, np.int64])),
    )
    scales = rng.random(columns.size) * 10.0 ** rng.integers(-6, 1, columns.size)
    out = rng.random(n) if draw(st.booleans()) else np.zeros(n)
    return matrix, columns, scales, out


def _assert_scatter_matches_oracle(matrix, columns, scales, out):
    expected_out = out.copy()
    expected_rows = scatter_columns(matrix, columns, scales, expected_out)
    rows = _scatter_columns(matrix, columns, scales, out)
    assert matrix.indices.dtype == rows.dtype
    assert np.array_equal(rows, expected_rows)
    assert np.array_equal(out, expected_out)


class TestColumnScatterIsAddAt:
    @given(scatter_cases())
    @settings(max_examples=300, deadline=None)
    def test_compiled_kernels(self, case):
        _assert_scatter_matches_oracle(*case)

    @given(scatter_cases())
    @settings(max_examples=100, deadline=None)
    def test_numpy_fallback(self, case):
        with mock.patch.object(sparsetools, "_compiled", None):
            _assert_scatter_matches_oracle(*case)

    def test_empty_column_list(self):
        matrix = sp.csc_matrix(np.eye(3))
        out = np.array([1.0, 2.0, 3.0])
        rows = _scatter_columns(matrix, np.zeros(0, dtype=np.int64), np.zeros(0), out)
        assert rows.size == 0
        assert out.tolist() == [1.0, 2.0, 3.0]


@pytest.fixture(scope="module")
def hub_engine():
    graph = copying_web_graph(300, out_degree=5, seed=11)
    params = IndexParams(
        capacity=8, hub_budget=6, propagation_threshold=5e-2, residue_threshold=0.6
    )
    return ReverseTopKEngine.build(graph, params)


def _trajectory(kernel, arrays, steps: int = 8):
    """Support order and every float after each of ``steps`` steps."""
    working = kernel.load(arrays)
    frames = []
    try:
        for _ in range(steps):
            if not kernel.step(working):
                break
            frames.append(
                tuple(
                    plane.copy()
                    for plane in (
                        working.support,
                        working.residual,
                        working.retained,
                        working.vector,
                        working.hub_ink,
                        working.top,
                        working.lower_bounds,
                    )
                )
            )
    finally:
        working.release()
    return frames


class TestStepsKeepTheReferenceSupportOrder:
    @pytest.mark.parametrize("fallback", [False, True])
    def test_steps_equal_add_at_steps(self, hub_engine, fallback):
        kernel, index = hub_engine._kernel, hub_engine.index
        # The six states with the most residue: the longest trajectories.
        nodes = np.argsort(np.asarray(index.columns.residual_mass))[::-1][:6]
        assert kernel._hub_nodes.size
        hub_ink_seen = False
        for node in nodes.tolist():
            arrays = index.state_arrays(node)
            if fallback:
                with mock.patch.object(sparsetools, "_compiled", None):
                    frames = _trajectory(kernel, arrays)
            else:
                frames = _trajectory(kernel, arrays)
            with mock.patch.object(propagation, "_scatter_columns", scatter_columns):
                expected = _trajectory(kernel, arrays)
            assert len(frames) == len(expected) > 1
            for frame, reference in zip(frames, expected):
                for plane, reference_plane in zip(frame, reference):
                    assert plane.dtype == reference_plane.dtype
                    assert np.array_equal(plane, reference_plane)
            hub_ink_seen |= not np.array_equal(frames[0][4], frames[-1][4])
        assert hub_ink_seen  # steps expanded fresh hub ink into v too
