"""Power-method computation of RWR proximity vectors (Section 2.1, Eq. 1-2).

The proximity vector of node ``u`` solves the linear system

    p_u = (1 - alpha) * A @ p_u + alpha * e_u

whose fixed point is approached by iterating the right-hand side.  Because
``A`` is column-stochastic and ``alpha > 0``, the iteration contracts with
rate ``1 - alpha`` in L1 (same argument as Theorem 2(b) of the paper), so the
number of iterations needed for tolerance ``eps`` is ``log(eps/alpha) /
log(1-alpha)``.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .._validation import check_node_index, check_positive_float, check_probability
from ..exceptions import ConvergenceError

#: The paper's default restart probability.
DEFAULT_ALPHA = 0.15
#: The paper's default convergence tolerance for exact computations.
DEFAULT_TOLERANCE = 1e-10


@dataclass(frozen=True)
class PowerMethodResult:
    """Outcome of a power-method run.

    Attributes
    ----------
    vector:
        The converged proximity vector.
    iterations:
        Number of iterations performed.
    residual:
        L1 difference between the last two iterates.
    converged:
        Whether ``residual`` dropped below the requested tolerance.
    """

    vector: np.ndarray
    iterations: int
    residual: float
    converged: bool


def expected_iterations(alpha: float, tolerance: float) -> int:
    """Iteration bound ``log(eps/alpha) / log(1-alpha)`` from Theorem 2(c)."""
    alpha = check_probability(alpha, "alpha")
    tolerance = check_positive_float(tolerance, "tolerance")
    if tolerance >= alpha:
        return 1
    return int(math.ceil(math.log(tolerance / alpha) / math.log(1.0 - alpha)))


def proximity_vector(
    transition: sp.spmatrix,
    source: int,
    *,
    alpha: float = DEFAULT_ALPHA,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: Optional[int] = None,
    raise_on_failure: bool = True,
) -> PowerMethodResult:
    """Compute ``p_source`` — proximities *from* ``source`` to every node.

    Parameters
    ----------
    transition:
        Column-stochastic transition matrix ``A``.  The iteration multiplies
        by rows, so any other format is converted to CSR on **every** call
        (O(nnz)); callers that solve repeatedly convert once and pass the CSR.
    source:
        The restart node ``u``.
    alpha:
        Restart probability (paper default 0.15).
    tolerance:
        L1 convergence threshold between successive iterates.
    max_iterations:
        Hard iteration cap; defaults to twice the theoretical bound.
    raise_on_failure:
        When ``True`` a :class:`ConvergenceError` is raised if the cap is hit
        before convergence; otherwise the non-converged result is returned.
    """
    alpha = check_probability(alpha, "alpha")
    tolerance = check_positive_float(tolerance, "tolerance")
    n = transition.shape[0]
    source = check_node_index(source, n, "source")
    if max_iterations is None:
        max_iterations = 2 * expected_iterations(alpha, tolerance) + 10

    restart = np.zeros(n, dtype=np.float64)
    restart[source] = alpha
    current = restart / alpha  # start from e_u, any stochastic start works
    matrix = transition.tocsr()
    residual = math.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        nxt = (1.0 - alpha) * (matrix @ current) + restart
        residual = float(np.abs(nxt - current).sum())
        current = nxt
        if residual < tolerance:
            return PowerMethodResult(current, iterations, residual, True)
    if raise_on_failure:
        raise ConvergenceError(
            f"power method did not converge in {max_iterations} iterations "
            f"(residual {residual:.3e} > tolerance {tolerance:.3e})",
            iterations,
            residual,
        )
    return PowerMethodResult(current, iterations, residual, False)


def proximity_column(
    transition: sp.spmatrix,
    source: int,
    *,
    alpha: float = DEFAULT_ALPHA,
    tolerance: float = DEFAULT_TOLERANCE,
) -> np.ndarray:
    """Convenience wrapper returning just the converged vector ``p_source``."""
    return proximity_vector(transition, source, alpha=alpha, tolerance=tolerance).vector


def proximity_matrix(
    transition: sp.spmatrix,
    *,
    alpha: float = DEFAULT_ALPHA,
    tolerance: float = DEFAULT_TOLERANCE,
    nodes: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Compute the full (dense) proximity matrix ``P`` column by column.

    This is the brute-force building block (Section 3); it is exposed mainly
    for the IBF/FBF baselines and for validating the index on small graphs.
    ``nodes`` restricts computation to a subset of columns (returned in the
    same order), which the baselines use to bound memory.

    Warning: the result is a dense ``n x n`` array — only call this on small
    graphs.
    """
    n = transition.shape[0]
    if nodes is None:
        columns = np.arange(n)
    else:
        columns = np.asarray(nodes, dtype=np.int64)
    result = np.zeros((n, columns.size), dtype=np.float64)
    for position, node in enumerate(columns):
        result[:, position] = proximity_vector(
            transition, int(node), alpha=alpha, tolerance=tolerance
        ).vector
    return result
