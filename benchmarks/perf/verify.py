"""The benchmark's independent oracle: exact RWR by one sparse LU per graph state.

Deliberately shares no code with the program (no ``repro.core`` /
``repro.rwr`` imports): it rebuilds the column-stochastic walk matrix from
the benchmark's own CSR arrays and solves ``(I - (1-a)A) p_u = a e_u``
directly, so two program paths agreeing with each other is never mistaken
for being right.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

#: Slack on the k-th value comparison: ties may fall either way.
TIE_SLACK = 1e-9
#: The index's documented resolution (IndexParams.rounding_threshold, the
#: paper's omega): a disagreement where both p_u(q) and the k-th value lie
#: below it is not counted.  The program does admit such nodes today — a
#: node reaching barely k others, p_u(q) = 0 against a k-th value of 8e-8 —
#: which README.md lists as a finding for ROADMAP item 4.
RESOLUTION = 1e-6


class Oracle:
    """Exact proximity vectors for one graph state (binary adjacency CSR)."""

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, alpha: float = 0.15):
        n = indptr.size - 1
        out_degree = np.diff(indptr)
        columns = np.repeat(np.arange(n), out_degree)
        walk = sp.csc_matrix(
            (1.0 / out_degree[columns], (indices, columns)), shape=(n, n)
        )
        dangling = np.flatnonzero(out_degree == 0)  # the paper's self-loop remedy
        walk = walk + sp.csc_matrix(
            (np.ones(dangling.size), (dangling, dangling)), shape=(n, n)
        )
        self.n, self.alpha = n, alpha
        self._lu = splu((sp.identity(n, format="csc") - (1.0 - alpha) * walk).tocsc())

    def proximities_from(self, sources: Sequence[int]) -> np.ndarray:
        """``(n, len(sources))``: column j is the RWR vector started at ``sources[j]``."""
        rhs = np.zeros((self.n, len(sources)))
        rhs[np.asarray(sources), np.arange(len(sources))] = self.alpha
        return self._lu.solve(rhs)

    def mismatches(
        self, query: int, k: int, claimed: np.ndarray, rng: np.random.Generator,
        *, sample: int = 50,
    ) -> int:
        """Membership errors among ≤``sample`` claimed members and ``sample`` others."""
        claimed = np.asarray(claimed, dtype=np.int64)
        members = claimed if claimed.size <= sample else rng.choice(claimed, sample, False)
        others = np.setdiff1d(np.arange(self.n), claimed)
        others = others if others.size <= sample else rng.choice(others, sample, False)
        vectors = self.proximities_from(np.concatenate([members, others]))
        kth = np.partition(vectors, -k, axis=0)[-k]
        to_query = vectors[query]
        resolvable = np.maximum(to_query, kth) >= RESOLUTION
        wrong_in = to_query[: members.size] < kth[: members.size] - TIE_SLACK
        wrong_out = to_query[members.size :] > kth[members.size :] + TIE_SLACK
        return int((np.concatenate([wrong_in, wrong_out]) & resolvable).sum())


def csr_from_edges(edges: set, n: int):
    """``(indptr, indices)`` of a ``{(u, v)}`` edge set (the wire workload's replay)."""
    pairs = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(pairs[:, 0], minlength=n))))
    return indptr.astype(np.int64), pairs[:, 1]
