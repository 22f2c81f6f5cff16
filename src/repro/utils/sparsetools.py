"""Sparse-vector helpers used by the BCA index and the query engine.

The reverse top-k index stores per-node state (residue ink, retained ink,
hub-accumulated ink, top-K lower bounds) as *sparse* vectors because for
realistic graphs only a tiny fraction of entries is non-zero.  These helpers
centralise the conversions and top-k extraction so the core algorithms stay
readable.

Compiled kernels
----------------
:func:`csr_matvec`, :func:`gather_rows` and :func:`csc_matvec` run SciPy's
compiled ``scipy.sparse._sparsetools`` routines (``csr_matvec``,
``csr_row_index``, ``csc_matvec``) over raw index arrays, with no matrix
object built per call.  That module is private but stable (it backs
SciPy's own ``@`` and fancy indexing); if a reorganised SciPy lacks it, each
function falls back to NumPy with the same arguments and the same floats.
"""

from __future__ import annotations

from typing import Mapping, Tuple

import numpy as np
import scipy.sparse as sp

try:  # pragma: no cover - exercised implicitly by every PMPN round and refinement step
    from scipy.sparse import _sparsetools as _compiled
except ImportError:  # pragma: no cover
    _compiled = None


def csr_matvec(
    n_row: int,
    n_col: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    x: np.ndarray,
    out: np.ndarray,
) -> None:
    """``out += A @ x`` for the CSR rows ``(indptr, indices, data)``, in place.

    Each row's entries are summed in stored order, starting from ``out[i]``.
    ``indptr`` may be a view into a larger pointer array (its first entry
    need not be 0), so a suffix of rows is passed without copying.
    """
    if _compiled is not None:
        _compiled.csr_matvec(n_row, n_col, indptr, indices, data, x, out)
        return
    lo, hi = indptr[0], indptr[-1]
    rows = np.repeat(np.arange(n_row), np.diff(indptr))
    np.add.at(out, rows, data[lo:hi] * x[indices[lo:hi]])


def gather_rows(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The listed CSR rows (or CSC columns), in the listed order, as fresh arrays.

    Returns ``(pointers, indices, data)`` of the gathered matrix: each row's
    entries keep their stored order.  One compiled ``csr_row_index`` pass.
    """
    rows = rows.astype(indptr.dtype, copy=False)
    starts = np.take(indptr, rows)
    pointers = np.zeros(rows.size + 1, dtype=indptr.dtype)
    np.cumsum(np.take(indptr, rows + 1) - starts, out=pointers[1:])
    if _compiled is None:
        lengths = np.diff(pointers)
        entries = np.repeat(starts - pointers[:-1], lengths) + np.arange(pointers[-1])
        return pointers, indices[entries], data[entries]
    total = int(pointers[-1])
    out_indices = np.empty(total, dtype=indices.dtype)
    out_data = np.empty(total, dtype=data.dtype)
    _compiled.csr_row_index(rows.size, rows, indptr, indices, data, out_indices, out_data)
    return pointers, out_indices, out_data


def csc_matvec(
    n_row: int,
    n_col: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    x: np.ndarray,
    out: np.ndarray,
) -> None:
    """``out += A @ x`` for the CSC columns ``(indptr, indices, data)``, in place.

    Adds ``data[e] * x[j]`` into ``out[indices[e]]`` one entry at a time in
    (column, entry) order — the order ``np.add.at`` takes, which the
    fallback uses.
    """
    if _compiled is not None:
        _compiled.csc_matvec(n_row, n_col, indptr, indices, data, x, out)
        return
    lo, hi = indptr[0], indptr[n_col]
    scales = x[:n_col].repeat(np.diff(indptr[: n_col + 1]))
    np.add.at(out, indices[lo:hi], scales * data[lo:hi])


def dense_top_k(values: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Return the indices and values of the ``k`` largest entries, descending.

    Ties are broken by ascending index so the result is deterministic.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    k = min(int(k), values.size)
    if k <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    # argpartition gives the k largest in O(n); a final sort orders them.
    candidate = np.argpartition(-values, k - 1)[:k]
    # Sort by (-value, index) for deterministic tie-breaking.
    order = np.lexsort((candidate, -values[candidate]))
    top = candidate[order]
    return top.astype(np.int64), values[top]


def top_k_descending(values: np.ndarray, k: int) -> np.ndarray:
    """Return just the ``k`` largest values in descending order (padded with 0).

    The lower-bound matrix of the index stores exactly ``K`` slots per node;
    when a node has fewer than ``K`` positive proximity estimates the tail is
    zero, which is a valid (trivial) lower bound.
    """
    _, top_values = dense_top_k(values, k)
    if top_values.size < k:
        top_values = np.pad(top_values, (0, k - top_values.size))
    return top_values


def splice_csc_columns(
    matrix: sp.csc_matrix,
    replacements: Mapping[int, Tuple[np.ndarray, np.ndarray]],
) -> sp.csc_matrix:
    """A copy of ``matrix`` with the given columns' ``(indices, data)`` swapped in.

    Spliced by contiguous spans, not per column: the unchanged stretches
    between replaced columns are copied as single slices, so the assembly
    cost scales with the number of *replaced* columns, not with the column
    count.  Every other column keeps its entries byte for byte; SciPy picks
    the result's index dtype (int32 whenever the sizes fit).
    """
    n_columns = matrix.shape[1]
    column_indices = []
    column_data = []
    counts = np.diff(matrix.indptr).astype(np.int64)
    previous = 0
    for j in sorted(replacements):
        if previous < j:
            span = slice(matrix.indptr[previous], matrix.indptr[j])
            column_indices.append(matrix.indices[span])
            column_data.append(matrix.data[span])
        indices, data = replacements[j]
        column_indices.append(np.asarray(indices, dtype=matrix.indices.dtype))
        column_data.append(data)
        counts[j] = len(indices)
        previous = j + 1
    if previous < n_columns:
        span = slice(matrix.indptr[previous], matrix.indptr[n_columns])
        column_indices.append(matrix.indices[span])
        column_data.append(matrix.data[span])
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(matrix.indptr.dtype)
    return sp.csc_matrix(
        (np.concatenate(column_data), np.concatenate(column_indices), indptr),
        shape=matrix.shape,
    )
