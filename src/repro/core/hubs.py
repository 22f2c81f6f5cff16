"""Hub selection (Section 4.1.1).

The paper replaces Berkhin's expensive greedy hub discovery with a simple
degree heuristic: take the union of the ``B`` highest in-degree nodes and the
``B`` highest out-degree nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Tuple

import numpy as np

from .._validation import check_non_negative_int
from ..graph.digraph import DiGraph


@dataclass(frozen=True)
class HubSet:
    """An ordered set of hub nodes with a position lookup.

    Attributes
    ----------
    nodes:
        Hub node ids in ascending order.
    """

    nodes: Tuple[int, ...]
    _positions: Dict[int, int] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_positions", {node: position for position, node in enumerate(self.nodes)}
        )

    @classmethod
    def from_iterable(cls, nodes: Iterable[int]) -> "HubSet":
        """Create a hub set from any iterable of node ids (deduplicated, sorted)."""
        return cls(tuple(sorted({int(node) for node in nodes})))

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: object) -> bool:
        return isinstance(node, (int, np.integer)) and int(node) in self._positions

    def __iter__(self):
        return iter(self.nodes)

    def position(self, node: int) -> int:
        """Column index of ``node`` inside the hub proximity matrix ``P_H``."""
        return self._positions[int(node)]

    def as_set(self) -> FrozenSet[int]:
        """Return the hubs as a frozen set."""
        return frozenset(self.nodes)

    def mask(self, n_nodes: int) -> np.ndarray:
        """Boolean mask of length ``n_nodes`` marking hub positions."""
        mask = np.zeros(n_nodes, dtype=bool)
        if self.nodes:
            mask[np.asarray(self.nodes, dtype=np.int64)] = True
        return mask


def degree_union_hubs(
    in_degree: np.ndarray, out_degree: np.ndarray, budget: int
) -> HubSet:
    """Union of the ``budget`` top in-degree and top out-degree nodes.

    The single shared implementation of the §4.1.1 selection — including its
    tie-break (primary key descending degree, secondary ascending node id,
    via one ``lexsort`` per direction) — used both by the graph-based
    :func:`select_hubs_by_degree` and by the transition-matrix-based selector
    in :mod:`repro.core.lbi`, so the two can never drift apart on graphs
    with degree ties.
    """
    in_degree = np.asarray(in_degree)
    out_degree = np.asarray(out_degree)
    n = in_degree.size
    if out_degree.size != n:
        raise ValueError(
            f"in_degree has {n} entries but out_degree has {out_degree.size}"
        )
    budget = min(check_non_negative_int(budget, "budget"), n)
    if budget == 0:
        return HubSet(())
    # lexsort: primary key descending degree, secondary ascending node id.
    by_in = np.lexsort((np.arange(n), -in_degree))[:budget]
    by_out = np.lexsort((np.arange(n), -out_degree))[:budget]
    return HubSet.from_iterable(np.concatenate([by_in, by_out]).tolist())


def select_hubs_by_degree(graph: DiGraph, budget: int) -> HubSet:
    """Degree-based hub selection (the paper's method, §4.1.1).

    Returns the union of the ``budget`` highest in-degree and the ``budget``
    highest out-degree nodes.  Ties are broken by node id for determinism
    (see :func:`degree_union_hubs`).  The resulting hub set has between
    ``budget`` and ``2 * budget`` nodes (matching the ``|H|`` column of
    Table 2, which is always below ``2B``).
    """
    return degree_union_hubs(graph.in_degree, graph.out_degree, budget)

