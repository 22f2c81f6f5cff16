"""Query workload generators (Section 5.3 runs 500-query workloads per graph)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .._validation import check_positive_int
from ..graph.digraph import DiGraph
from ..utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class QueryWorkload:
    """A sequence of reverse top-k queries to run against one graph.

    Attributes
    ----------
    queries:
        Node ids, in execution order.
    k:
        The reverse top-k depth shared by all queries.
    description:
        Human-readable provenance ("uniform", "degree-weighted", ...).
    """

    queries: np.ndarray
    k: int
    description: str = ""

    def __len__(self) -> int:
        return int(self.queries.size)

    def __iter__(self) -> Iterator[int]:
        return iter(int(q) for q in self.queries)

    def with_k(self, k: int) -> "QueryWorkload":
        """The same query sequence at a different depth ``k`` (Figure 5 sweeps)."""
        return QueryWorkload(self.queries.copy(), check_positive_int(k, "k"), self.description)


def uniform_query_workload(
    graph: DiGraph | int,
    n_queries: int,
    *,
    k: int = 10,
    seed: SeedLike = 0,
    replace: bool = True,
) -> QueryWorkload:
    """Sample query nodes uniformly at random (the paper's default workload)."""
    n_nodes = graph if isinstance(graph, int) else graph.n_nodes
    n_queries = check_positive_int(n_queries, "n_queries")
    rng = ensure_rng(seed)
    if not replace:
        n_queries = min(n_queries, n_nodes)
        queries = rng.choice(n_nodes, size=n_queries, replace=False)
    else:
        queries = rng.integers(0, n_nodes, size=n_queries)
    return QueryWorkload(queries.astype(np.int64), k, "uniform")


def degree_weighted_query_workload(
    graph: DiGraph,
    n_queries: int,
    *,
    k: int = 10,
    seed: SeedLike = 0,
    direction: str = "in",
) -> QueryWorkload:
    """Sample query nodes proportionally to degree.

    High in-degree nodes are the typical targets of spam-style analyses, so
    this workload stresses the harder queries (larger candidate sets).
    """
    n_queries = check_positive_int(n_queries, "n_queries")
    rng = ensure_rng(seed)
    degrees = (graph.in_degree if direction == "in" else graph.out_degree).astype(np.float64)
    weights = degrees + 1.0
    probabilities = weights / weights.sum()
    queries = rng.choice(graph.n_nodes, size=n_queries, p=probabilities)
    return QueryWorkload(queries.astype(np.int64), k, f"degree-weighted ({direction})")


def zipfian_query_workload(
    graph: DiGraph | int,
    n_queries: int,
    *,
    k: int = 10,
    exponent: float = 1.1,
    hot_fraction: float = 0.05,
    seed: SeedLike = 0,
) -> QueryWorkload:
    """Sample a skewed, repeat-heavy query stream (serving-cache workload).

    Real query traffic is Zipf-like: a small hot set receives most requests.
    A random permutation of the nodes is ranked, the top
    ``ceil(hot_fraction * n)`` ranks form the eligible pool, and queries are
    drawn with probability proportional to ``rank^-exponent`` — so the same
    hot queries repeat many times, which is exactly what a result cache and
    in-flight dedup exploit.

    Parameters
    ----------
    exponent:
        Zipf exponent ``s > 0``; larger means more skew.
    hot_fraction:
        Fraction of the node population eligible as queries (at least one).
    """
    n_nodes = graph if isinstance(graph, int) else graph.n_nodes
    n_queries = check_positive_int(n_queries, "n_queries")
    if exponent <= 0:
        raise ValueError(f"exponent must be positive, got {exponent}")
    if not 0.0 < hot_fraction <= 1.0:
        raise ValueError(f"hot_fraction must be in (0, 1], got {hot_fraction}")
    rng = ensure_rng(seed)
    pool_size = max(1, int(np.ceil(hot_fraction * n_nodes)))
    pool = rng.permutation(n_nodes)[:pool_size]
    weights = 1.0 / np.arange(1, pool_size + 1, dtype=np.float64) ** exponent
    probabilities = weights / weights.sum()
    queries = rng.choice(pool, size=n_queries, p=probabilities)
    return QueryWorkload(
        queries.astype(np.int64), k, f"zipfian (s={exponent}, hot={hot_fraction})"
    )
