"""Edge-level updates to an immutable :class:`DiGraph`, one batch at a time.

:class:`DiGraph` is deliberately immutable — every algorithm in the package
assumes a frozen CSR.  Real proximity graphs churn, though, so the dynamic
subsystem describes each mutation as a :class:`GraphUpdate` and applies a
whole batch with :func:`apply_batch`: one validated pass over the updates,
then one :meth:`DiGraph.with_edges` call that yields the next graph.

Two properties matter for the index maintainer downstream:

* **touched sources** — every source a batch names is reported, so the
  maintainer learns which transition columns may have changed (a
  conservative superset: the column-level diff filters the rest);
* **no-op elision** — an edit that restores an edge to its exact weight in
  the input graph (add-then-remove, or a weight change back to the
  original) is dropped before the CSR is edited.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Dict, Iterable, Set, Tuple

import numpy as np

from .._validation import check_node_index
from ..exceptions import GraphError
from ..graph.digraph import DiGraph

#: Accepted update kinds.
UPDATE_OPS = ("add", "remove", "set_weight")


def _is_finite(weight: float) -> bool:
    """``math.isfinite``, with an int too large for a float counted as infinite."""
    try:
        return math.isfinite(weight)
    except OverflowError:
        return False


@dataclass(frozen=True)
class GraphUpdate:
    """One edge mutation.

    Attributes
    ----------
    op:
        ``"add"`` (edge must not exist), ``"remove"`` (edge must exist) or
        ``"set_weight"`` (edge must exist; weight replaced).
    source / target:
        Endpoint node ids.
    weight:
        New edge weight for ``add`` / ``set_weight``; ignored for ``remove``.
    """

    op: str
    source: int
    target: int
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.op not in UPDATE_OPS:
            raise GraphError(
                f"update op must be one of {UPDATE_OPS}, got {self.op!r}"
            )
        if self.op != "remove" and not (self.weight > 0 and _is_finite(self.weight)):
            raise GraphError(
                f"{self.op} update weight must be positive and finite, "
                f"got {self.weight}"
            )

    # Convenience constructors keep call sites readable.
    @classmethod
    def add(cls, source: int, target: int, weight: float = 1.0) -> "GraphUpdate":
        """An edge insertion."""
        return cls("add", int(source), int(target), float(weight))

    @classmethod
    def remove(cls, source: int, target: int) -> "GraphUpdate":
        """An edge deletion."""
        return cls("remove", int(source), int(target))

    @classmethod
    def set_weight(cls, source: int, target: int, weight: float) -> "GraphUpdate":
        """A weight change on an existing edge."""
        return cls("set_weight", int(source), int(target), float(weight))

    @classmethod
    def coerce(cls, item: "GraphUpdate | Tuple") -> "GraphUpdate":
        """Accept ``GraphUpdate`` instances or ``(op, source, target[, weight])`` tuples."""
        if isinstance(item, GraphUpdate):
            return item
        return cls(*item)

    def as_tuple(self) -> Tuple:
        """The wire/JSON form ``coerce`` round-trips: weight omitted for removes."""
        if self.op == "remove":
            return (self.op, self.source, self.target)
        return (self.op, self.source, self.target, self.weight)


def apply_batch(
    graph: DiGraph, updates: Iterable["GraphUpdate | Tuple"]
) -> Tuple[DiGraph, np.ndarray]:
    """Apply a batch of edge mutations; return ``(graph, touched_sources)``.

    Each update is validated in order against ``graph`` as edited by the
    updates before it: an ``add`` needs a missing edge, a ``remove`` or
    ``set_weight`` an existing one, and both endpoints must be nodes of
    ``graph`` (the node set is fixed — dynamics are edge-level, matching the
    paper's §6 application graphs).  The first invalid update raises before
    anything is built, so a rejected batch leaves no trace.  The net edits
    then go to one :meth:`DiGraph.with_edges` call, which returns ``graph``
    itself when they cancel out.  ``touched_sources`` holds the sorted ids
    of every source the batch names, elided no-ops included.
    """
    n_nodes = graph.n_nodes
    edits: Dict[Tuple[int, int], float] = {}  # net weight; 0.0 = removed
    touched: Set[int] = set()
    for item in updates:
        update = GraphUpdate.coerce(item)
        source = check_node_index(update.source, n_nodes, "source")
        target = check_node_index(update.target, n_nodes, "target")
        original = graph.edge_weight(source, target)
        present = edits.get((source, target), original) > 0.0
        if update.op == "add" and present:
            raise GraphError(
                f"edge {source} -> {target} already exists "
                "(use set_weight to change it)"
            )
        if update.op == "remove" and not present:
            raise GraphError(f"cannot remove missing edge {source} -> {target}")
        if update.op == "set_weight" and not present:
            raise GraphError(
                f"cannot set weight of missing edge {source} -> {target} "
                "(use add)"
            )
        weight = 0.0 if update.op == "remove" else update.weight
        touched.add(source)
        if weight == original:
            edits.pop((source, target), None)
        else:
            edits[(source, target)] = weight
    added = [(s, t, weight) for (s, t), weight in edits.items() if weight > 0.0]
    removed = [edge for edge, weight in edits.items() if weight == 0.0]
    return (
        graph.with_edges(added, removed),
        np.asarray(sorted(touched), dtype=np.int64),
    )
