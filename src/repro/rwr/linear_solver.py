"""Direct (non-iterative) proximity computation via sparse linear algebra.

The proximity matrix has the closed form ``P = alpha * (I - (1-alpha) A)^{-1}``
(Eq. 2).  Solving the system directly with a sparse LU factorisation is the
strategy behind the K-dash top-k algorithm the paper compares against
(Fujiwara et al., PVLDB 2012): factor once offline, then obtain any column of
``P`` with two triangular solves.  We expose the factorisation as
:class:`ProximityLU`, the exactness oracle of the tests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .._validation import check_node_index, check_probability
from .power_method import DEFAULT_ALPHA


class ProximityLU:
    """Sparse LU factorisation of ``(I - (1-alpha) A)``.

    Provides exact proximity columns (``p_u``) and rows (``p_{q,*}``) without
    materialising the full matrix.  The row solve uses the transposed system,
    mirroring the PMPN observation of Section 4.2.1.
    """

    def __init__(self, transition: sp.spmatrix, *, alpha: float = DEFAULT_ALPHA) -> None:
        self.alpha = check_probability(alpha, "alpha")
        n = transition.shape[0]
        if transition.shape[0] != transition.shape[1]:
            raise ValueError("transition matrix must be square")
        self.n_nodes = n
        system = sp.identity(n, format="csc") - (1.0 - self.alpha) * transition.tocsc()
        self._lu = spla.splu(system.tocsc())
        self._lu_transpose: Optional[spla.SuperLU] = None
        self._system_transpose = system.T.tocsc()

    def column(self, source: int) -> np.ndarray:
        """Exact proximity vector ``p_source`` (column of ``P``)."""
        source = check_node_index(source, self.n_nodes, "source")
        rhs = np.zeros(self.n_nodes, dtype=np.float64)
        rhs[source] = self.alpha
        return self._lu.solve(rhs)

    def row(self, target: int) -> np.ndarray:
        """Exact proximities from every node to ``target`` (row of ``P``)."""
        target = check_node_index(target, self.n_nodes, "target")
        if self._lu_transpose is None:
            self._lu_transpose = spla.splu(self._system_transpose)
        rhs = np.zeros(self.n_nodes, dtype=np.float64)
        rhs[target] = self.alpha
        return self._lu_transpose.solve(rhs)

    def matrix(self) -> np.ndarray:
        """Dense exact proximity matrix ``P`` (small graphs only)."""
        identity = np.eye(self.n_nodes) * self.alpha
        return self._lu.solve(identity)
