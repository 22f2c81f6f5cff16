"""Algorithm 2 — Power Method for Proximity to Node (PMPN), with its residual.

Given the query node ``q``, the online algorithm compares the proximity
``p_u(q)`` from *every* node ``u`` to ``q`` — the row ``p_{q,*}`` of the
proximity matrix — against bounds.  Theorem 2 of the paper proves that the
iteration

    x_{i+1} = (1 - alpha) * A^T @ x_i + alpha * e_q,    x_0 = e_q

converges to that row with rate ``1 - alpha``, at the cost of computing a
single *column* of ``P``.

Residual form
-------------
The iterate splits into an estimate and a residual, ``x_i = est_i + r_i``
with ``est_0 = 0, r_0 = e_q``, ``est_{i+1} = est_i + alpha * r_i`` and
``r_{i+1} = (1 - alpha) * A^T @ r_i``.  :class:`PMPNState` runs the paper's
iteration itself, bit for bit, and carries the residual alongside it
without a second product: ``r_{i+1} = (x_{i+1} - x_i) + (1 - alpha) *
r_i``.  What the split buys is a certificate.  The row left to come is
``p_u(q) - est_u = sum_v r_v * p_u(v)``, every term non-negative; ``A`` is
column-stochastic, so ``sum_v p_u(v) = 1`` and

    est_u <= p_u(q) <= est_u + max_v r_v

for **every** node at **every** round: one scalar *width* for all ``n``
nodes.  A column of ``A`` sums to one, so no entry of ``A^T @ r`` exceeds
``max r``: the width shrinks by at least ``1 - alpha`` per round, and the
intervals are nested (``alpha * r_u + max r' <= max r``), each holding the
iterate ``x_i``.  In floats the interval is widened on both sides by a bound
on the rounds' own rounding (``(entries + 8) * eps / alpha``, ``~1e-13`` on
the benchmark graphs), so it holds as computed, not just as derived.

A caller that only *compares* ``p_u(q)`` against thresholds advances the
state only while some comparison is still open — the query engine does.
Where the interval never decides (a threshold that ties ``p_u(q)``), the
comparison is made on PMPN's result: the iterate of the round where the L1
change first drops below the tolerance, Theorem 2's stop — the very value
the paper's Algorithm 4 compares.  :func:`proximity_to_node` called on its
own advances until that stop and until the width is at most the tolerance:
exact values on demand.

Only the rows that can reach ``q``
----------------------------------
Row ``u`` of ``A^T`` holds ``u``'s out-edges, so a round reads ``r`` at
``u``'s out-neighbours only.  **Lemma.** From ``r_0 = e_q``, every ``r_i``
and ``est_i`` is exactly zero outside ``Anc(q)``, the nodes with a path to
``q`` — a node outside has all its out-neighbours outside, so by induction
it sums only zero terms; and with the nodes laid out in a topological order
of the strongly connected components (every edge points to an earlier
position or stays inside its component), ``Anc(q)`` lies in ``q``'s
*suffix* ``[first[q], n)``, where ``first[q]`` is the first position of
``q``'s component — positions never decrease backwards along a path into
``q``.  A node outside the row set therefore has ``est = r = 0`` exactly,
and its interval ``[0, width]`` is certified like any other.

:class:`PMPNPlan` holds that layout, built once per transition matrix, and
each state iterates only one *row set*:

* if the suffix holds at most :data:`SEARCH_SUFFIX_SHARE` of the edges, one
  compiled breadth-first search over the in-edges returns ``Anc(q)``, and if
  those rows hold at most :data:`GATHER_ANCESTORS_SHARE` of the edges, the
  rounds run on the ancestors' rows gathered into a small CSR;
* otherwise they run on the suffix rows, a zero-copy slice of the CSR
  arrays.  At ``first[q] = 0`` that is the whole matrix.

Every row keeps its stored entries in the order of ``transition.T.tocsr()``
and is summed by the same compiled CSR product from ``0.0``; the columns a
row set leaves out hold an exact ``+0.0``, so the row set changes no bit of
any round.  A node outside the row set has ``p_u(q) = 0`` exactly: its
interval is the point ``0``.

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

_EPS = float(np.finfo(np.float64).eps)


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
    max_row_entries:
        The most stored entries in one row: the longest sum a round makes,
        which bounds its rounding.
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
        self.max_row_entries = int(np.diff(indptr).max()) if n else 0

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


class PMPNState:
    """PMPN for one query, one round at a time, with certified intervals.

    A round is Algorithm 2's own iteration over the row set, bit for bit,
    and carries the residual alongside it (module docstring).  After
    :attr:`iterations` rounds every node ``u`` has
    ``lower[u] <= p_u(q) <= lower[u] + width``, rounding included.
    :meth:`advance` runs one more round.

    Attributes
    ----------
    query, alpha, tolerance:
        The query node, the restart probability and the width at which
        :attr:`converged` holds.
    iterations:
        Rounds run so far.
    width:
        ``max_v r_v`` plus twice the rounding bound — ``1.0`` before the
        first round.
    settled:
        Whether a round's L1 change has dropped below the tolerance —
        Theorem 2's stop, where PMPN returns :attr:`proximities`.
    rows, edges:
        Rows of ``A^T`` iterated per round (``n`` for the whole matrix) and
        their stored entries, i.e. edges touched per round.
    """

    def __init__(
        self, plan: PMPNPlan, query: int, alpha: float, tolerance: float
    ) -> None:
        self.query = query
        self.alpha = alpha
        self.tolerance = tolerance
        self.iterations = 0
        self.width = 1.0
        self.settled = False
        self._plan = plan
        self._row_set = plan.row_set(query)
        self._nodes = plan.order[self._row_set.index]
        # The iterate by layout position (the product's input), zero outside
        # the row set, and over the rows: x_0 = e_q, r_0 = e_q.
        self._x = np.zeros(plan.n_nodes, dtype=np.float64)
        self._x[plan.position[query]] = 1.0
        self._current = self._x[self._row_set.index].copy()
        self._residual = self._current.copy()
        # A round's rounding is at most (entries + 3) eps (every entry of the
        # iterate is <= 1), carrying the residual adds a few eps more, and
        # the remainder operator damps each round's error by 1 - alpha per
        # later round: the total stays below this bound at every round.
        self._rounding = (plan.max_row_entries + 8) * _EPS / alpha
        self._settled_values: Optional[np.ndarray] = None
        # Each node's row, -1 outside the row set (where p_u(q) = 0 exactly).
        self._row_of = np.full(plan.n_nodes, -1, dtype=np.int64)
        self._row_of[self._nodes] = np.arange(self._nodes.size)
        self._ends: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def rows(self) -> int:
        return self._row_set.n_rows

    @property
    def edges(self) -> int:
        return self._row_set.n_edges

    @property
    def converged(self) -> bool:
        """Whether the width is down to the tolerance."""
        return self.width <= self.tolerance

    @property
    def at_floor(self) -> bool:
        """Whether a comparison the interval leaves open is decided on :attr:`proximities`.

        From PMPN's own stop on — where Algorithm 2 returns its iterate and
        a comparison is made on it — or once the width is down to the
        tolerance; the iterate lies in every round's interval, so a
        comparison the interval decided earlier comes out the same on it.
        """
        return self.settled or self.converged

    def advance(self) -> None:
        """One round: ``x <- (1 - alpha) A^T[rows] x + alpha e_q``, ``r <- (x' - x) + (1 - alpha) r``."""
        rows = self._row_set
        scale = 1.0 - self.alpha
        nxt = rows.product(self._x)
        nxt *= scale
        nxt[rows.query_row] += self.alpha
        change = nxt - self._current
        residual = self._residual
        residual *= scale
        residual += change
        self._x[rows.index] = nxt
        self._current = nxt
        self._residual = residual
        self.iterations += 1
        if not self.settled and float(np.abs(change).sum()) < self.tolerance:
            self.settled = True
            self._settled_values = self._dense(nxt)
        top = float(residual.max()) if residual.size else 0.0
        self.width = top + 2.0 * self._rounding
        self._ends = None

    def _dense(self, values: np.ndarray) -> np.ndarray:
        out = np.zeros(self._plan.n_nodes, dtype=np.float64)
        out[self._nodes] = values
        return out

    def _estimate(self, rows) -> np.ndarray:
        """``est = x - r`` at ``rows``, less the rounding bound, never below 0."""
        estimate = self._current[rows] - self._residual[rows]
        estimate -= self._rounding
        return np.maximum(estimate, 0.0, out=estimate)

    def interval(
        self, nodes: Union[slice, np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The certified ``(lower, upper)`` ends of ``p_u(q)`` at ``nodes``.

        ``lower`` is ``est = x - r`` less the rounding bound, never below
        ``0``, and ``upper = lower + width``; a node outside the row set
        cannot reach ``q``, so both ends are ``0`` there.  A slice builds
        dense ends, which serve every read until the next round; before
        that, an index array gathers its rows.
        """
        if isinstance(nodes, slice) and self._ends is None:
            estimate = self._estimate(slice(None))
            self._ends = (self._dense(estimate), self._dense(estimate + self.width))
        if self._ends is not None:
            return self._ends[0][nodes], self._ends[1][nodes]
        rows = self._row_of[nodes]
        # Row -1 reads the last row; outside nodes are zeroed below.
        lower = self._estimate(rows)
        outside = rows < 0
        lower[outside] = 0.0
        upper = lower + self.width
        upper[outside] = 0.0
        return lower, upper

    def interval_at(self, node: int) -> Tuple[float, float]:
        """:meth:`interval` at one node, as floats."""
        row = self._row_of[node]
        if row < 0:
            return 0.0, 0.0
        estimate = max(
            float(self._current[row] - self._residual[row]) - self._rounding, 0.0
        )
        return estimate, estimate + self.width

    @property
    def lower(self) -> np.ndarray:
        """The certified lower ends of every node."""
        return self.interval(slice(None))[0]

    @property
    def proximities(self) -> np.ndarray:
        """PMPN's result: the iterate of the round that :attr:`settled`, per node.

        Bit for bit what Algorithm 2 run to its own stop returns; a test the
        interval cannot decide is decided on it.
        """
        if self._settled_values is None:
            raise ValueError("PMPN has not settled: advance until state.settled")
        return self._settled_values


class PointProximities:
    """Known values of ``p_*(q)`` read as intervals ``[p, p]``: every comparison decides at once.

    The interface of :class:`PMPNState` that Algorithm 4's tests read, for
    a caller that already holds the values (tests, the per-node reference
    scan); it never needs another round.
    """

    at_floor = True
    settled = True

    def __init__(self, values: np.ndarray) -> None:
        self.proximities = values

    def interval(
        self, nodes: Union[slice, np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        values = self.proximities[nodes]
        return values, values

    def interval_at(self, node: int) -> Tuple[float, float]:
        value = float(self.proximities[node])
        return value, value

    def advance(self) -> None:
        raise ValueError("known values are never tightened")


def proximity_to_node(
    transition: sp.spmatrix,
    query: int,
    *,
    alpha: float = 0.15,
    tolerance: float = 1e-10,
    max_iterations: Optional[int] = None,
    raise_on_failure: bool = True,
    plan: Optional[PMPNPlan] = None,
) -> PMPNState:
    """Proximities from all nodes to ``query`` (Algorithm 2), to within ``tolerance``.

    Returns the :class:`PMPNState` after the first round at which it has
    both :attr:`~PMPNState.settled` and :attr:`~PMPNState.converged`:
    ``state.proximities`` is PMPN's result and ``state.lower`` is within
    ``tolerance`` of the exact row.

    Parameters
    ----------
    transition:
        Column-stochastic transition matrix ``A`` of the graph.
    query:
        Target node ``q``.
    alpha:
        Restart probability.
    tolerance:
        Bound on the L1 change of a round and on the width.
    max_iterations:
        Hard cap on the rounds; defaults to twice the Theorem 2(c) bound.
        ``0`` (with ``raise_on_failure=False``) returns the state before its
        first round, for a caller that advances it only while one of its
        decisions is still open — the query engine does.
    raise_on_failure:
        Raise :class:`ConvergenceError` if the cap is reached (default), or
        return the unconverged state when ``False``.
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

    state = PMPNState(plan, query, alpha, tolerance)
    while not (state.settled and state.converged) and state.iterations < max_iterations:
        state.advance()
    if not (state.settled and state.converged) and raise_on_failure:
        raise ConvergenceError(
            f"PMPN did not converge in {max_iterations} iterations "
            f"(width {state.width:.3e} > tolerance {tolerance:.3e})",
            state.iterations,
            state.width,
        )
    return state


def pmpn_iteration_bound(alpha: float, tolerance: float) -> int:
    """Theorem 2(c): rounds after which the change is below tolerance."""
    return expected_iterations(alpha, tolerance)
