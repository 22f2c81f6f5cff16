"""Algorithm 2 — Power Method for Proximity to Node (PMPN).

Given the query node ``q``, the online algorithm needs the **exact**
proximities from *every* node to ``q``, i.e. the row ``p_{q,*}`` of the
proximity matrix.  Theorem 2 of the paper proves that the iteration

    x_{i+1} = (1 - alpha) * A^T @ x_i + alpha * e_q

converges (from any start vector) to that row, with convergence rate
``1 - alpha`` and therefore at most ``log(eps/alpha) / log(1-alpha)``
iterations for tolerance ``eps`` — the same cost as computing a single
*column* of ``P``.

Only the rows that can reach ``q``
----------------------------------
Row ``u`` of ``A^T`` holds ``u``'s out-edges, so ``x_{i+1}[u]`` reads ``x_i``
at ``u``'s out-neighbours only.  **Lemma.** Starting from ``x_0 = e_q``,
(a) the supports are nested, ``supp(x_i) ⊆ supp(x_{i+1})`` — the restart
term keeps ``q``, and an entry fed by a positive entry stays fed, every
term being non-negative; (b) every ``x_i`` is exactly zero outside
``Anc(q)``, the nodes with a path to ``q`` — a node outside has all its
out-neighbours outside, so by induction it sums only zero terms; and
(c) with the nodes laid out in a topological order of the strongly
connected components (every edge points to an earlier position or stays
inside its component), ``Anc(q)`` lies in ``q``'s *suffix*
``[first[q], n)``, where ``first[q]`` is the first position of ``q``'s
component — positions never decrease backwards along a path into ``q``.

:class:`PMPNPlan` holds that layout, built once per transition matrix, and
:func:`proximity_to_node` iterates only one *row set* per query:

* if the suffix holds at most :data:`SEARCH_SUFFIX_SHARE` of the edges, one
  compiled breadth-first search over the in-edges returns ``Anc(q)``, and if
  those rows hold at most :data:`GATHER_ANCESTORS_SHARE` of the edges, the
  iteration runs on the ancestors' rows gathered into a small CSR;
* otherwise it runs on the suffix rows, a zero-copy slice of the CSR
  arrays.  At ``first[q] = 0`` that is the whole matrix — the dense
  iteration — and an arbitrary start vector (``initial=``) always takes it.

**Bit-identity.** Every row keeps its stored entries in the order of
``transition.T.tocsr()`` and is summed by the same compiled CSR product from
``0.0``; the columns a row set leaves out hold an exact ``+0.0`` (lemma),
whose product term adds nothing to any partial sum.  So every iterate, and
with it every answer, is bit-identical to the dense iteration.  *Caveat:*
the stopping residual ``‖x_{i+1} − x_i‖₁`` is summed over the row set in
layout order rather than over all ``n`` entries in node order; the summands
are the same but their pairwise association differs, so the residual may
differ in the last ulp and the stop could move only if ``‖Δ‖`` sat within
ulps of the tolerance.  Iteration counts were equal on every query sized.

**The two cut constants** were sized on the ``tail_k10`` stream (4 000-node
copying-web graph, 40k edges) on a shared 2-core x86-64 VM, PMPN alone over
3 000 queries × 2 reps, with row sets wrapped in ``csr_matrix`` slices and
gathered rows summed by ``np.bincount``: dense 294 µs p50 / 682 µs p95; suffix only 207 / 663; this rule 146 / 651;
searching the ancestors of *every* query 96 / 795 — rejected, because the
search is wasted on the 12 % of queries with more than 2 000 ancestors
(p95 +17 %).  Half the edges is where a suffix is short enough that a
search is likely to pay; a tenth is where gathering the ancestors' rows
beats slicing the suffix.  The ancestor path takes 50 % of ``tail_k10``
queries, 35 % of ``wire_churn``'s, 6 % of ``memmap_k1``'s (one component of
3 760 of 4 000 nodes) and none of ``mid_k50_update``'s.

This module is deliberately self-contained so it can be reused outside the
reverse top-k engine (e.g. to compute exact PageRank contributions for
SpamRank-style analyses, as the paper suggests).
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .._validation import check_node_index, check_positive_float, check_probability
from ..exceptions import ConvergenceError
from ..rwr.power_method import expected_iterations

try:  # pragma: no cover - exercised implicitly by every PMPN run
    # Accumulating CSR product y += A @ x over raw arrays: a suffix of rows is
    # then a view of the pointer array, with no matrix object to build per
    # query.  Private but stable (it backs scipy's own @); a reorganised SciPy
    # degrades to wrapping the rows in a csr_matrix.
    from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
except ImportError:  # pragma: no cover
    _csr_matvec = None

#: Search for the ancestors of ``q`` only when ``q``'s topological suffix
#: holds at most this share of the edges (see the module docstring).
SEARCH_SUFFIX_SHARE = 0.5

#: Iterate on the gathered ancestor rows only when they hold at most this
#: share of the edges; otherwise on the suffix.
GATHER_ANCESTORS_SHARE = 0.1


@dataclass(frozen=True)
class PMPNResult:
    """Result of a PMPN run.

    Attributes
    ----------
    proximities:
        ``proximities[u]`` is the exact proximity from node ``u`` to the query
        (entry ``P[q, u]`` of the proximity matrix).
    iterations:
        Iterations performed until the L1 change dropped below tolerance.
    residual:
        Final L1 change between successive iterates.
    converged:
        Whether the tolerance was reached within the iteration budget.
    rows:
        Rows of ``A^T`` iterated per step (``n`` for the dense iteration).
    edges:
        Stored entries of those rows, i.e. edges touched per step.
    """

    proximities: np.ndarray
    iterations: int
    residual: float
    converged: bool
    rows: int
    edges: int


@dataclass(frozen=True)
class RowSet:
    """The rows one PMPN run iterates, as CSR arrays over layout positions.

    ``indptr`` holds absolute offsets into ``indices`` / ``data`` (a suffix
    is a view of the plan's arrays), ``index`` the rows' positions — a slice
    for a suffix, an array for gathered ancestors — and ``query_row`` the
    place of ``q`` among them.
    """

    index: Union[slice, np.ndarray]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    query_row: int

    @property
    def n_rows(self) -> int:
        return self.indptr.size - 1

    @property
    def n_edges(self) -> int:
        return int(self.indptr[-1] - self.indptr[0])

    def product(self, x: np.ndarray) -> np.ndarray:
        """``A^T[rows] @ x``: each row's entries summed in stored order from 0.0."""
        if _csr_matvec is None:  # see the import guard
            lo, hi = self.indptr[0], self.indptr[-1]
            rows = sp.csr_matrix(
                (self.data[lo:hi], self.indices[lo:hi], self.indptr - lo),
                shape=(self.n_rows, x.size),
            )
            return rows @ x
        out = np.zeros(self.n_rows)
        _csr_matvec(
            self.n_rows, x.size, self.indptr, self.indices, self.data, x, out
        )
        return out


def _gather_rows(indptr: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(pointers, offsets)`` of ``rows`` gathered, row after row, into a new CSR.

    ``offsets`` indexes the stored entries of every row in stored order, so
    ``indices[offsets]`` / ``data[offsets]`` under ``pointers`` is the gather.
    """
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    pointers = np.zeros(rows.size + 1, dtype=indptr.dtype)
    np.cumsum(lengths, out=pointers[1:])
    offsets = np.repeat(starts - pointers[:-1], lengths) + np.arange(pointers[-1])
    return pointers, offsets


class PMPNPlan:
    """``A^T`` laid out for PMPN: permuted into a topological order of its SCCs.

    Built once per transition matrix: the engine builds one per binding, so
    ``rebind`` and unpickling both get a fresh one, and a pickled engine
    carries none.  Read-only after construction, hence shared
    freely by concurrent queries.

    Attributes
    ----------
    transposed:
        ``A^T`` in CSR with rows *and* columns permuted to layout positions;
        each row keeps its entries in the stored order of
        ``transition.T.tocsr()``, data as float64.
    in_edges:
        The same matrix transposed (``A`` in CSR, by position): row ``p``
        lists the positions with an edge into ``p`` — the ancestor search.
    order, position:
        ``order[p]`` is the node at position ``p``; ``position[v]`` inverts it.
    first:
        ``first[v]``, the first position of ``v``'s strongly connected
        component.  The layout is checked at build time (every edge must
        point to a component no later than its own); if the check fails,
        ``first`` is all zeros — the full iteration, still exact.
    """

    def __init__(self, transition: sp.spmatrix) -> None:
        transposed = transition.T.tocsr()
        n = transposed.shape[0]
        _, labels = connected_components(
            transposed, directed=True, connection="strong"
        )
        order = np.argsort(labels, kind="stable")
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n)
        first = np.searchsorted(labels[order], labels).astype(np.int64)
        tails = np.repeat(np.arange(n), np.diff(transposed.indptr))
        # SciPy's labels come out topological in practice; nothing promises
        # it, so an edge into a later component demotes the plan to dense.
        if not np.all(first[transposed.indices] <= first[tails]):
            first = np.zeros(n, dtype=np.int64)

        indptr, offsets = _gather_rows(transposed.indptr, order)
        self.transposed = sp.csr_matrix(
            (
                transposed.data[offsets].astype(np.float64, copy=False),
                position.astype(indptr.dtype)[transposed.indices[offsets]],
                indptr,
            ),
            shape=transposed.shape,
        )
        self.in_edges = self.transposed.T.tocsr()
        self.order = order
        self.position = position
        self.first = first

    @property
    def n_nodes(self) -> int:
        return self.transposed.shape[0]

    def suffix(self, start: int, query_row: int) -> RowSet:
        """Rows ``[start, n)``: views of the plan's arrays, nothing copied."""
        matrix = self.transposed
        return RowSet(
            slice(start, self.n_nodes),
            matrix.indptr[start:],
            matrix.indices,
            matrix.data,
            query_row - start,
        )

    def ancestors(self, query: int) -> np.ndarray:
        """Positions of ``Anc(q)`` in breadth-first order, ``q``'s own first."""
        return breadth_first_order(
            self.in_edges,
            self.position[query],
            directed=True,
            return_predecessors=False,
        )

    def gathered(self, ancestors: np.ndarray) -> RowSet:
        """The rows of :meth:`ancestors`' output (``q`` first) copied into a small CSR."""
        matrix = self.transposed
        indptr, offsets = _gather_rows(matrix.indptr, ancestors)
        return RowSet(
            ancestors, indptr, matrix.indices[offsets], matrix.data[offsets], 0
        )

    def row_set(self, query: int) -> RowSet:
        """The rows PMPN iterates for ``query`` (the rule of the module docstring)."""
        start = int(self.first[query])
        indptr = self.transposed.indptr
        edges = self.transposed.nnz
        if edges - indptr[start] <= SEARCH_SUFFIX_SHARE * edges:
            ancestors = self.ancestors(query)
            ancestor_edges = (indptr[ancestors + 1] - indptr[ancestors]).sum()
            if ancestor_edges <= GATHER_ANCESTORS_SHARE * edges:
                return self.gathered(ancestors)
        return self.suffix(start, int(self.position[query]))


def proximity_to_node(
    transition: sp.spmatrix,
    query: int,
    *,
    alpha: float = 0.15,
    tolerance: float = 1e-10,
    max_iterations: Optional[int] = None,
    initial: Optional[np.ndarray] = None,
    raise_on_failure: bool = True,
    plan: Optional[PMPNPlan] = None,
) -> PMPNResult:
    """Compute the exact proximities from all nodes to ``query`` (Algorithm 2).

    Parameters
    ----------
    transition:
        Column-stochastic transition matrix ``A`` of the graph.
    query:
        Target node ``q``.
    alpha:
        Restart probability.
    tolerance:
        Convergence threshold ``eps`` on the L1 difference of iterates.
    max_iterations:
        Hard cap; defaults to twice the Theorem 2(c) bound.
    initial:
        Optional start vector ``x_0`` (Theorem 2 guarantees convergence from
        any start; the default is ``e_q``).  An arbitrary start has no zero
        pattern to exploit, so it iterates every row.
    raise_on_failure:
        Raise :class:`ConvergenceError` if the cap is reached (default), or
        return the non-converged result when ``False``.
    plan:
        The :class:`PMPNPlan` of ``transition``.  Building one costs about a
        millisecond at 4 000 nodes; workloads evaluating many queries against
        the same graph (the engine) build it once and pass it on every call.
    """
    alpha = check_probability(alpha, "alpha")
    tolerance = check_positive_float(tolerance, "tolerance")
    n = transition.shape[0]
    query = check_node_index(query, n, "query")
    if max_iterations is None:
        max_iterations = 2 * expected_iterations(alpha, tolerance) + 10
    if plan is None:
        plan = PMPNPlan(transition)
    elif plan.n_nodes != n:
        raise ValueError(f"plan covers {plan.n_nodes} nodes, expected {n}")

    if initial is None:
        rows = plan.row_set(query)
        x = np.zeros(n, dtype=np.float64)
        x[plan.position[query]] = 1.0
    else:
        start = np.asarray(initial, dtype=np.float64).ravel()
        if start.size != n:
            raise ValueError(f"initial vector has length {start.size}, expected {n}")
        rows = plan.suffix(0, int(plan.position[query]))
        x = start[plan.order]
    restart = np.zeros(rows.n_rows, dtype=np.float64)
    restart[rows.query_row] = alpha
    scale = 1.0 - alpha

    # ``x`` is the full iterate by position; outside the row set it stays
    # exactly zero (or, from an arbitrary start, the row set is everything).
    current = x[rows.index]
    residual = math.inf
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        nxt = rows.product(x)
        nxt *= scale
        nxt += restart
        residual = float(np.abs(nxt - current).sum())
        x[rows.index] = nxt
        current = nxt
        if residual < tolerance:
            converged = True
            break
    if not converged and raise_on_failure:
        raise ConvergenceError(
            f"PMPN did not converge in {max_iterations} iterations "
            f"(residual {residual:.3e} > tolerance {tolerance:.3e})",
            iterations,
            residual,
        )
    proximities = np.zeros(n, dtype=np.float64)
    proximities[plan.order[rows.index]] = current
    return PMPNResult(
        proximities, iterations, residual, converged, rows.n_rows, rows.n_edges
    )


def pmpn_iteration_bound(alpha: float, tolerance: float) -> int:
    """Theorem 2(c): iterations needed so that the L1 change is below tolerance."""
    return expected_iterations(alpha, tolerance)
