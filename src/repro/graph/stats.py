"""Graph summary statistics, printed beside each paper figure's table."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

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
