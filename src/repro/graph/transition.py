"""Column-stochastic RWR transition matrices (Section 2.1 of the paper).

The paper defines the transition matrix ``A`` so that ``a_{i,j} = 1/OD(j)``
when the edge ``j -> i`` exists: column ``j`` describes how node ``j`` spreads
probability over its out-neighbours.  Section 5.4 additionally uses a
*weighted* variant for the co-authorship graph, ``a_{i,j} = w_{i,j} / w_j``.

Dangling nodes (out-degree zero) break column stochasticity; the paper's
footnote offers two remedies which are both implemented here:

* ``DanglingPolicy.SELF_LOOP`` — give each dangling node a self-loop;
* ``DanglingPolicy.SINK`` — add one extra sink node that every dangling node
  points to and that loops onto itself;
* ``DanglingPolicy.ERROR`` refuses to proceed.
"""

from __future__ import annotations

from enum import Enum
from typing import Tuple

import numpy as np
import scipy.sparse as sp

from ..exceptions import GraphError
from ..utils.sparsetools import splice_csc_columns
from .digraph import DiGraph


class DanglingPolicy(str, Enum):
    """How to make columns of dangling nodes stochastic."""

    SELF_LOOP = "self_loop"
    SINK = "sink"
    ERROR = "error"


def transition_matrix(
    graph: DiGraph,
    *,
    dangling: DanglingPolicy | str = DanglingPolicy.SELF_LOOP,
) -> sp.csc_matrix:
    """Return the column-stochastic transition matrix ``A`` of ``graph``.

    ``A[i, j] = 1 / OD(j)`` whenever the edge ``j -> i`` exists, regardless of
    edge weights (the paper's default, unweighted random walk).

    Parameters
    ----------
    graph:
        The directed graph.
    dangling:
        Policy for out-degree-zero nodes.  ``SELF_LOOP`` (default) adds a
        probability-1 self transition; ``SINK`` appends an absorbing sink node
        (the returned matrix is then ``(n+1) x (n+1)``); ``ERROR`` raises.

    Returns
    -------
    scipy.sparse.csc_matrix
        Column-stochastic matrix in CSC format (efficient column slicing,
        which is what BCA and the power method need).
    """
    dangling = DanglingPolicy(dangling)
    adjacency = graph.adjacency  # CSR, rows = source
    out_degree = graph.out_degree.astype(np.float64)
    n = graph.n_nodes

    dangling_ids = np.flatnonzero(out_degree == 0)
    if dangling_ids.size and dangling is DanglingPolicy.ERROR:
        raise GraphError(
            f"graph has {dangling_ids.size} dangling nodes and dangling policy is ERROR"
        )

    # Each existing edge j -> i contributes 1/OD(j) at A[i, j]: transpose the
    # binary adjacency and scale columns by 1/out-degree.
    pattern = adjacency.copy()
    pattern.data = np.ones_like(pattern.data)
    safe_degree = np.where(out_degree > 0, out_degree, 1.0)
    scale = sp.diags(1.0 / safe_degree)
    matrix = (scale @ pattern).T.tocsc()  # A[i, j] = 1/OD(j) for edge j->i

    if dangling_ids.size == 0:
        return _canonical(matrix)

    if dangling is DanglingPolicy.SELF_LOOP:
        loops = sp.csc_matrix(
            (np.ones(dangling_ids.size), (dangling_ids, dangling_ids)), shape=(n, n)
        )
        return _canonical(matrix + loops)

    # SINK: append node n; every dangling column sends all mass to it and the
    # sink loops onto itself.
    matrix = sp.bmat(
        [
            [matrix, sp.csc_matrix((n, 1))],
            [sp.csc_matrix((1, n)), sp.csc_matrix(np.array([[1.0]]))],
        ],
        format="lil",
    )
    for j in dangling_ids:
        matrix[n, j] = 1.0
    return _canonical(matrix.tocsc())


def weighted_transition_matrix(
    graph: DiGraph,
    *,
    dangling: DanglingPolicy | str = DanglingPolicy.SELF_LOOP,
) -> sp.csc_matrix:
    """Return the weighted column-stochastic transition matrix.

    ``A[i, j] = w_{j->i} / sum_k w_{j->k}``, i.e. probability proportional to
    edge weight.  This is the variant used in Section 5.4 for the DBLP
    co-authorship graph where ``w_{i,j}`` is the number of co-authored papers.
    """
    dangling = DanglingPolicy(dangling)
    adjacency = graph.adjacency
    out_weight = graph.out_weight
    n = graph.n_nodes

    dangling_ids = np.flatnonzero(out_weight == 0)
    if dangling_ids.size and dangling is DanglingPolicy.ERROR:
        raise GraphError(
            f"graph has {dangling_ids.size} zero-out-weight nodes and dangling policy is ERROR"
        )

    safe_weight = np.where(out_weight > 0, out_weight, 1.0)
    scale = sp.diags(1.0 / safe_weight)
    matrix = (scale @ adjacency).T.tocsc()

    if dangling_ids.size == 0:
        return _canonical(matrix)

    if dangling is DanglingPolicy.SELF_LOOP:
        loops = sp.csc_matrix(
            (np.ones(dangling_ids.size), (dangling_ids, dangling_ids)), shape=(n, n)
        )
        return _canonical(matrix + loops)

    matrix = sp.bmat(
        [
            [matrix, sp.csc_matrix((n, 1))],
            [sp.csc_matrix((1, n)), sp.csc_matrix(np.array([[1.0]]))],
        ],
        format="lil",
    )
    for j in dangling_ids:
        matrix[n, j] = 1.0
    return _canonical(matrix.tocsc())


def rebuild_transition_columns(
    transition: sp.csc_matrix,
    graph: DiGraph,
    sources: "np.ndarray | Tuple[int, ...] | list",
    *,
    weighted: bool = False,
    dangling: DanglingPolicy | str = DanglingPolicy.SELF_LOOP,
) -> Tuple[sp.csc_matrix, np.ndarray]:
    """Recompute only the transition columns of ``sources`` against ``graph``.

    This is the delta-maintenance path of the dynamic-graph subsystem: after
    a batch of edge mutations only the columns of the touched source nodes
    can differ, so instead of rebuilding the whole matrix the new columns are
    computed from ``graph`` and spliced into ``transition``.

    The per-column arithmetic replays :func:`transition_matrix` (or the
    weighted variant) operation for operation — ``1/OD(j)`` for the uniform
    walk, ``(1/W(j)) * w_{j,i}`` for the weighted one, a unit self-loop for
    dangling columns — so the spliced matrix is **bit-identical** to a full
    rebuild on ``graph``.  That guarantee is what lets the index maintainer
    keep unaffected BCA states verbatim.

    Parameters
    ----------
    transition:
        The current (canonical CSC) transition matrix, built for the graph
        *before* the mutations.
    graph:
        The graph *after* the mutations (same node count).
    sources:
        Node ids whose out-edges may have changed (a superset is fine).
    weighted:
        Replay :func:`weighted_transition_matrix` instead of the uniform walk.
    dangling:
        Only :attr:`DanglingPolicy.SELF_LOOP` is supported — the ``SINK``
        policy changes the matrix shape, which delta maintenance cannot do.

    Returns
    -------
    (matrix, changed):
        The spliced column-stochastic CSC matrix and the sorted array of
        sources whose column actually differs from ``transition`` (sources
        whose recomputed column is bit-identical are dropped — e.g. a weight
        change under the unweighted walk).
    """
    dangling = DanglingPolicy(dangling)
    if dangling is not DanglingPolicy.SELF_LOOP:
        raise GraphError(
            "rebuild_transition_columns supports only the SELF_LOOP dangling "
            f"policy, got {dangling.value!r}"
        )
    n = graph.n_nodes
    old = sp.csc_matrix(transition)
    if old.shape != (n, n):
        raise GraphError(
            f"transition shape {old.shape} does not match the graph ({n} nodes)"
        )
    source_ids = np.unique(np.asarray(list(sources), dtype=np.int64))
    if source_ids.size and (source_ids[0] < 0 or source_ids[-1] >= n):
        raise GraphError("sources outside the graph's node range")

    adjacency = graph.adjacency  # CSR, canonical: sorted indices, no zeros
    normalizer = graph.out_weight if weighted else graph.out_degree.astype(np.float64)
    replacements = {}
    changed = []
    for j in source_ids.tolist():
        start, stop = adjacency.indptr[j], adjacency.indptr[j + 1]
        if start == stop:
            indices = np.array([j], dtype=old.indices.dtype)
            data = np.array([1.0], dtype=np.float64)
        else:
            indices = adjacency.indices[start:stop].astype(old.indices.dtype)
            # Same rounding as the full builders: a diagonal-scale matmul
            # multiplies each entry by the precomputed reciprocal.
            inverse = 1.0 / normalizer[j]
            if weighted:
                data = inverse * adjacency.data[start:stop]
            else:
                data = np.full(indices.size, inverse, dtype=np.float64)
        old_start, old_stop = old.indptr[j], old.indptr[j + 1]
        same = (
            old_stop - old_start == indices.size
            and np.array_equal(old.indices[old_start:old_stop], indices)
            and np.array_equal(old.data[old_start:old_stop], data)
        )
        if same:
            continue
        replacements[j] = (indices, data)
        changed.append(j)

    if not replacements:
        return old, np.asarray([], dtype=np.int64)

    matrix = splice_csc_columns(old, replacements)
    return matrix, np.asarray(changed, dtype=np.int64)


def is_column_stochastic(matrix: sp.spmatrix, *, atol: float = 1e-9) -> bool:
    """Check that every column of ``matrix`` sums to 1 (within ``atol``).

    This is the invariant the RWR solvers rely on; property-based tests call
    it on transition matrices of randomly generated graphs.
    """
    if matrix.shape[0] != matrix.shape[1]:
        return False
    column_sums = np.asarray(matrix.sum(axis=0)).ravel()
    if not np.allclose(column_sums, 1.0, atol=atol):
        return False
    return matrix.nnz == 0 or float(matrix.tocsc().data.min()) >= -atol


def column_slice(matrix: sp.csc_matrix, column: int) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(row_indices, values)`` of a CSC column without copying the matrix."""
    start, stop = matrix.indptr[column], matrix.indptr[column + 1]
    return matrix.indices[start:stop], matrix.data[start:stop]


def _canonical(matrix: sp.spmatrix) -> sp.csc_matrix:
    result = sp.csc_matrix(matrix)
    result.sum_duplicates()
    result.eliminate_zeros()
    result.sort_indices()
    return result
