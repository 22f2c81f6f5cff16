"""Graph summary statistics, printed beside each paper figure's table."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .digraph import DiGraph


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics of a directed graph."""

    n_nodes: int
    n_edges: int
    density: float
    mean_out_degree: float
    max_out_degree: int
    max_in_degree: int
    n_dangling: int
    reciprocity: float

    def as_dict(self) -> Dict[str, float]:
        """Return the statistics as a plain dictionary (for table printing)."""
        return {
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "density": self.density,
            "mean_out_degree": self.mean_out_degree,
            "max_out_degree": self.max_out_degree,
            "max_in_degree": self.max_in_degree,
            "n_dangling": self.n_dangling,
            "reciprocity": self.reciprocity,
        }


def summarize(graph: DiGraph) -> GraphStats:
    """Compute :class:`GraphStats` for ``graph``."""
    n, m = graph.n_nodes, graph.n_edges
    out_degree = graph.out_degree
    in_degree = graph.in_degree
    density = m / (n * (n - 1)) if n > 1 else 0.0
    adjacency = graph.adjacency
    pattern = adjacency.copy()
    pattern.data = np.ones_like(pattern.data)
    mutual = pattern.multiply(pattern.T).nnz
    reciprocity = mutual / m if m else 0.0
    return GraphStats(
        n_nodes=n,
        n_edges=m,
        density=float(density),
        mean_out_degree=float(out_degree.mean()) if n else 0.0,
        max_out_degree=int(out_degree.max()) if n else 0,
        max_in_degree=int(in_degree.max()) if n else 0,
        n_dangling=int((out_degree == 0).sum()),
        reciprocity=float(reciprocity),
    )


def degree_histogram(graph: DiGraph, *, direction: str = "out") -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(degree_values, counts)`` of the out- or in-degree distribution.

    Useful to confirm generators produce the heavy-tailed distributions the
    hub-selection heuristic relies on.
    """
    if direction not in ("out", "in"):
        raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")
    degrees = graph.out_degree if direction == "out" else graph.in_degree
    values, counts = np.unique(degrees, return_counts=True)
    return values.astype(np.int64), counts.astype(np.int64)


def powerlaw_exponent_estimate(graph: DiGraph, *, direction: str = "in") -> float:
    """Crude Hill-style estimate of the degree-distribution exponent.

    Returns the maximum-likelihood power-law exponent of the degree tail
    (degrees >= 1).  The value is only used descriptively in benchmark output.
    """
    degrees = graph.in_degree if direction == "in" else graph.out_degree
    positive = degrees[degrees >= 1].astype(np.float64)
    if positive.size < 2:
        return float("nan")
    d_min = positive.min()
    return float(1.0 + positive.size / np.log(positive / d_min + 1e-12).sum())
