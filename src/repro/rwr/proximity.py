"""A thin wrapper over a fully materialised proximity matrix.

Only the brute-force baselines (IBF) and small-graph validation use this:
the whole point of the paper is to *avoid* computing ``P``.  The wrapper adds
convenient top-k / reverse-top-k accessors and size accounting so that the
Figure 8 / Table 2 comparisons can report the storage cost of the naive
approach.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp

from .._validation import check_k, check_node_index
from ..utils.sparsetools import dense_top_k
from .power_method import DEFAULT_ALPHA, DEFAULT_TOLERANCE, proximity_matrix


class ProximityMatrix:
    """Dense proximity matrix ``P`` with top-k helpers.

    ``P[:, u]`` is the proximity vector of ``u`` (proximities *from* ``u``),
    matching the paper's column convention.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"proximity matrix must be square, got shape {matrix.shape}")
        self._matrix = matrix

    @classmethod
    def from_transition(
        cls,
        transition: sp.spmatrix,
        *,
        alpha: float = DEFAULT_ALPHA,
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> "ProximityMatrix":
        """Compute ``P`` column-by-column with the power method."""
        return cls(proximity_matrix(transition, alpha=alpha, tolerance=tolerance))

    @property
    def n_nodes(self) -> int:
        """Number of nodes (matrix dimension)."""
        return self._matrix.shape[0]

    @property
    def values(self) -> np.ndarray:
        """The underlying dense array (row ``v``, column ``u`` = ``p_u(v)``)."""
        return self._matrix

    def column(self, node: int) -> np.ndarray:
        """Proximity vector of ``node`` (proximities from ``node``)."""
        node = check_node_index(node, self.n_nodes)
        return self._matrix[:, node]

    def row(self, node: int) -> np.ndarray:
        """Proximities from every node to ``node``."""
        node = check_node_index(node, self.n_nodes)
        return self._matrix[node, :]

    def proximity(self, source: int, target: int) -> float:
        """Proximity from ``source`` to ``target`` (``p_source(target)``)."""
        source = check_node_index(source, self.n_nodes, "source")
        target = check_node_index(target, self.n_nodes, "target")
        return float(self._matrix[target, source])

    def top_k(self, node: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Indices and values of the ``k`` nodes closest *from* ``node``."""
        k = check_k(k, self.n_nodes)
        return dense_top_k(self.column(node), k)

    def kth_value(self, node: int, k: int) -> float:
        """The k-th largest proximity value in ``node``'s proximity vector."""
        _, values = self.top_k(node, k)
        return float(values[-1]) if values.size else 0.0

    def reverse_top_k(self, query: int, k: int) -> np.ndarray:
        """Exact reverse top-k answer by scanning every column (ground truth)."""
        query = check_node_index(query, self.n_nodes, "query")
        k = check_k(k, self.n_nodes)
        result = [
            node
            for node in range(self.n_nodes)
            if self.proximity(node, query) >= self.kth_value(node, k) - 1e-15
        ]
        return np.asarray(result, dtype=np.int64)

    def nbytes(self) -> int:
        """Memory footprint of the dense matrix in bytes."""
        return int(self._matrix.nbytes)
