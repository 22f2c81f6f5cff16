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

Only ``q``'s suffix of rows
---------------------------
Row ``u`` of ``A^T`` holds ``u``'s out-edges, so a round reads ``r`` at
``u``'s out-neighbours only.  **Lemma.** From ``r_0 = e_q``, every ``r_i``
and ``est_i`` is exactly zero outside ``Anc(q)``, the nodes with a path to
``q`` — a node outside has all its out-neighbours outside, so by induction
it sums only zero terms; and with the nodes laid out in a topological order
of the strongly connected components (every edge points to an earlier
position or stays inside its component), ``Anc(q)`` lies in ``q``'s
*suffix* ``[first[q], n)``, where ``first[q]`` is the first position of
``q``'s component — positions never decrease backwards along a path into
``q``.  A node before the suffix therefore has ``est = r = 0`` exactly.

Each state iterates exactly that suffix, a zero-copy slice of the CSR
arrays of :class:`PMPNPlan`'s layout, built once per transition matrix; at
``first[q] = 0`` it is the whole matrix.  Every row keeps its stored
entries in the order of ``transition.T.tocsr()`` and is summed by the same
compiled CSR product from ``0.0``; the columns the suffix leaves out, and
the rows inside it that cannot reach ``q``, hold an exact ``+0.0``, so the
suffix changes no bit of any round.  A node before the suffix has
``p_u(q) = 0`` exactly: its interval is the point ``0``.  Searching
``Anc(q)`` per query to iterate only its rows does not pay once the engine
stops PMPN after about two rounds (README, "PMPN iterates one suffix").

This module is deliberately self-contained so it can be reused outside the
reverse top-k engine (e.g. to compute exact PageRank contributions for
SpamRank-style analyses, as the paper suggests).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .._validation import check_node_index, check_positive_float, check_probability
from ..exceptions import ConvergenceError
from ..rwr.power_method import expected_iterations
from ..utils.sparsetools import csr_matvec, gather_rows

_EPS = float(np.finfo(np.float64).eps)


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
    order, position:
        ``order[p]`` is the node at position ``p``; ``position[v]`` inverts it.
    first:
        ``first[v]``, the first position of ``v``'s strongly connected
        component: the start of the suffix PMPN iterates for ``v``.  The
        layout is checked at build time (every edge must point to a
        component no later than its own); if the check fails, ``first`` is
        all zeros — the full iteration, still exact.
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

        indptr, indices, data = gather_rows(
            transposed.indptr, transposed.indices, transposed.data, order
        )
        self.transposed = sp.csr_matrix(
            (
                data.astype(np.float64, copy=False),
                position.astype(indptr.dtype)[indices],
                indptr,
            ),
            shape=transposed.shape,
        )
        self.order = order
        self.position = position
        self.first = first
        self.max_row_entries = int(np.diff(indptr).max()) if n else 0

    @property
    def n_nodes(self) -> int:
        return self.transposed.shape[0]


class PMPNState:
    """PMPN for one query, one round at a time, with certified intervals.

    A round is Algorithm 2's own iteration over ``q``'s suffix of the
    plan's layout, bit for bit, and carries the residual alongside it
    (module docstring).  After :attr:`iterations` rounds every node ``u``
    has ``lower[u] <= p_u(q) <= lower[u] + width``, rounding included.
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
        Rows of ``A^T`` iterated per round, ``n - first[q]`` (``n`` for the
        whole matrix), and their stored entries, i.e. edges touched per round.
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
        # The suffix [start, n): row i of a round is layout position start + i.
        self._start = start = int(plan.first[query])
        self._indptr = plan.transposed.indptr[start:]
        # The iterate by layout position (the product's input), zero before
        # the suffix, and over the rows: x_0 = e_q, r_0 = e_q.
        self._x = np.zeros(plan.n_nodes, dtype=np.float64)
        self._x[plan.position[query]] = 1.0
        self._query_row = int(plan.position[query]) - start
        self._current = self._x[start:].copy()
        self._residual = self._current.copy()
        # A round's rounding is at most (entries + 3) eps (every entry of the
        # iterate is <= 1), carrying the residual adds a few eps more, and
        # the remainder operator damps each round's error by 1 - alpha per
        # later round: the total stays below this bound at every round.
        self._rounding = (plan.max_row_entries + 8) * _EPS / alpha
        self._settled_values: Optional[np.ndarray] = None
        self._ends: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def rows(self) -> int:
        return self._indptr.size - 1

    @property
    def edges(self) -> int:
        return int(self._indptr[-1] - self._indptr[0])

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

    def _product(self) -> np.ndarray:
        """``A^T[suffix] @ x``: each row's entries summed in stored order from 0.0."""
        matrix, indptr, x = self._plan.transposed, self._indptr, self._x
        out = np.zeros(self.rows)
        # The suffix's rows are a view of the pointer array: no matrix object
        # is built per round.
        csr_matvec(self.rows, x.size, indptr, matrix.indices, matrix.data, x, out)
        return out

    def advance(self) -> None:
        """One round: ``x <- (1 - alpha) A^T[suffix] x + alpha e_q``, ``r <- (x' - x) + (1 - alpha) r``."""
        scale = 1.0 - self.alpha
        nxt = self._product()
        nxt *= scale
        nxt[self._query_row] += self.alpha
        change = nxt - self._current
        residual = self._residual
        residual *= scale
        residual += change
        self._x[self._start:] = nxt
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
        out[self._plan.order[self._start:]] = values
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
        ``0``, and ``upper = lower + width``; a node before the suffix
        cannot reach ``q``, so both ends are ``0`` there.  A slice builds
        dense ends, which serve every read until the next round; before
        that, an index array gathers its rows.
        """
        if isinstance(nodes, slice) and self._ends is None:
            estimate = self._estimate(slice(None))
            self._ends = (self._dense(estimate), self._dense(estimate + self.width))
        if self._ends is not None:
            return self._ends[0][nodes], self._ends[1][nodes]
        rows = self._plan.position[nodes] - self._start
        outside = rows < 0
        rows[outside] = 0  # read any row; outside nodes are zeroed below
        lower = self._estimate(rows)
        lower[outside] = 0.0
        upper = lower + self.width
        upper[outside] = 0.0
        return lower, upper

    def interval_at(self, node: int) -> Tuple[float, float]:
        """:meth:`interval` at one node, as floats."""
        row = int(self._plan.position[node]) - self._start
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

