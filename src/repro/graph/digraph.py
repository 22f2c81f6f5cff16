"""A compact, immutable directed graph backed by SciPy CSR adjacency.

The reverse top-k algorithms need three things from a graph:

* fast access to the out-neighbours of a node (for ink propagation),
* the column-stochastic transition matrix ``A`` (for the power method),
* in/out degree vectors (for hub selection).

:class:`DiGraph` stores the adjacency once in CSR form (row = source) and
derives the rest lazily, caching the results.  Edge weights are optional; an
unweighted graph stores an implicit weight of ``1.0`` per edge.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from .._validation import check_node_index
from ..exceptions import GraphError, NodeNotFoundError


class DiGraph:
    """Immutable directed graph with integer node ids ``0 .. n-1``.

    Parameters
    ----------
    adjacency:
        An ``n x n`` sparse (or dense) matrix where entry ``(i, j)`` is the
        weight of edge ``i -> j``.  Zero entries are absent edges.
    node_names:
        Optional sequence of ``n`` human-readable node labels (e.g. author
        names, host names).  Purely cosmetic; algorithms use integer ids.

    Notes
    -----
    The matrix is canonicalised to CSR with sorted indices, duplicate entries
    summed and explicit zeros removed, so two graphs built from equivalent
    edge sets compare equal structurally.
    """

    __slots__ = (
        "_adjacency",
        "_adjacency_csc",
        "_node_names",
        "_name_to_id",
        "_out_degree",
        "_in_degree",
        "_out_weight",
        "_is_weighted",
    )

    def __init__(
        self,
        adjacency: sp.spmatrix | np.ndarray,
        node_names: Optional[Sequence[str]] = None,
    ) -> None:
        matrix = sp.csr_matrix(adjacency, dtype=np.float64)
        if matrix.shape[0] != matrix.shape[1]:
            raise GraphError(
                f"adjacency must be square, got shape {matrix.shape}"
            )
        if matrix.nnz and not np.isfinite(matrix.data).all():
            # NaN slips through ordering comparisons (NaN < 0 is False) and
            # poisons every downstream proximity; Inf breaks normalization.
            raise GraphError("edge weights must be finite")
        if matrix.nnz and matrix.data.min() < 0:
            raise GraphError("edge weights must be non-negative")
        matrix.sum_duplicates()
        matrix.eliminate_zeros()
        matrix.sort_indices()
        self._adjacency: sp.csr_matrix = matrix
        self._adjacency_csc: Optional[sp.csc_matrix] = None
        self._out_degree: Optional[np.ndarray] = None
        self._in_degree: Optional[np.ndarray] = None
        self._out_weight: Optional[np.ndarray] = None
        self._name_to_id: Optional[dict] = None
        self._is_weighted: Optional[bool] = None
        if node_names is not None:
            names = list(node_names)
            if len(names) != matrix.shape[0]:
                raise GraphError(
                    f"expected {matrix.shape[0]} node names, got {len(names)}"
                )
            self._node_names: Optional[Tuple[str, ...]] = tuple(str(x) for x in names)
        else:
            self._node_names = None

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def n_nodes(self) -> int:
        """Number of nodes in the graph."""
        return self._adjacency.shape[0]

    @property
    def n_edges(self) -> int:
        """Number of directed edges (non-zero adjacency entries)."""
        return int(self._adjacency.nnz)

    @property
    def adjacency(self) -> sp.csr_matrix:
        """The CSR adjacency matrix (row = source, column = target)."""
        return self._adjacency

    @property
    def adjacency_csc(self) -> sp.csc_matrix:
        """CSC view of the adjacency, cached (column = target)."""
        if self._adjacency_csc is None:
            self._adjacency_csc = self._adjacency.tocsc()
        return self._adjacency_csc

    @property
    def node_names(self) -> Optional[Tuple[str, ...]]:
        """Optional node labels supplied at construction time."""
        return self._node_names

    @property
    def is_weighted(self) -> bool:
        """``True`` when any edge weight differs from 1 (computed once, cached)."""
        if self._is_weighted is None:
            self._is_weighted = bool(self._adjacency.nnz) and not np.allclose(
                self._adjacency.data, 1.0
            )
        return self._is_weighted

    # ------------------------------------------------------------------ #
    # degrees
    # ------------------------------------------------------------------ #
    @property
    def out_degree(self) -> np.ndarray:
        """Out-degree (number of out-edges) per node as ``int64``."""
        if self._out_degree is None:
            self._out_degree = np.diff(self._adjacency.indptr).astype(np.int64)
        return self._out_degree

    @property
    def in_degree(self) -> np.ndarray:
        """In-degree (number of in-edges) per node as ``int64``."""
        if self._in_degree is None:
            self._in_degree = np.diff(self.adjacency_csc.indptr).astype(np.int64)
        return self._in_degree

    @property
    def out_weight(self) -> np.ndarray:
        """Total outgoing edge weight per node as ``float64``."""
        if self._out_weight is None:
            self._out_weight = np.asarray(self._adjacency.sum(axis=1)).ravel()
        return self._out_weight

    def dangling_nodes(self) -> np.ndarray:
        """Return the ids of nodes with no outgoing edges."""
        return np.flatnonzero(self.out_degree == 0).astype(np.int64)

    # ------------------------------------------------------------------ #
    # neighbourhood access
    # ------------------------------------------------------------------ #
    def out_neighbors(self, node: int) -> np.ndarray:
        """Return the out-neighbour ids of ``node``."""
        node = self._check_node(node)
        start, stop = self._adjacency.indptr[node], self._adjacency.indptr[node + 1]
        return self._adjacency.indices[start:stop].astype(np.int64)

    def in_neighbors(self, node: int) -> np.ndarray:
        """Return the in-neighbour ids of ``node``."""
        node = self._check_node(node)
        csc = self.adjacency_csc
        start, stop = csc.indptr[node], csc.indptr[node + 1]
        return csc.indices[start:stop].astype(np.int64)

    def has_edge(self, source: int, target: int) -> bool:
        """Return whether the directed edge ``source -> target`` exists.

        Binary search over the node's sorted CSR index slice — ``O(log d)``
        per lookup instead of a linear scan of the out-neighbour list.
        """
        source, target = self._check_node(source), self._check_node(target)
        return self._edge_position(source, target) >= 0

    def edge_weight(self, source: int, target: int) -> float:
        """Return the weight of edge ``source -> target`` (0 when absent)."""
        source = self._check_node(source)
        target = self._check_node(target)
        return float(self._adjacency[source, target])

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield every edge as ``(source, target, weight)``."""
        coo = self._adjacency.tocoo()
        for source, target, weight in zip(coo.row, coo.col, coo.data):
            yield int(source), int(target), float(weight)

    def nodes(self) -> range:
        """Return the node id range ``0 .. n-1``."""
        return range(self.n_nodes)

    def name_of(self, node: int) -> str:
        """Return the label of ``node`` (falls back to ``str(node)``)."""
        node = self._check_node(node)
        if self._node_names is None:
            return str(node)
        return self._node_names[node]

    def node_id(self, name: str) -> int:
        """Return the id of the node labelled ``name``.

        The name→id mapping is built once on first use, so repeated lookups
        cost ``O(1)`` instead of an ``O(n)`` scan of the label tuple.  When a
        label occurs more than once, the first occurrence wins (matching the
        previous ``tuple.index`` behaviour).

        Raises
        ------
        NodeNotFoundError
            If the graph has no labels or ``name`` is not among them.
        """
        if self._node_names is None:
            raise NodeNotFoundError(name)
        if self._name_to_id is None:
            mapping: dict = {}
            for node, label in enumerate(self._node_names):
                mapping.setdefault(label, node)
            self._name_to_id = mapping
        try:
            return self._name_to_id[name]
        except KeyError as exc:
            raise NodeNotFoundError(name) from exc

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #
    def reverse(self) -> "DiGraph":
        """Return the graph with every edge direction flipped."""
        return DiGraph(self._adjacency.T.tocsr(), self._node_names)

    def subgraph(self, nodes: Iterable[int]) -> "DiGraph":
        """Return the induced subgraph on ``nodes`` (relabelled 0..len-1).

        An empty ``nodes`` iterable yields the empty (0-node) graph rather
        than relying on SciPy's empty fancy-indexing behaviour, which has
        varied across versions.
        """
        ids = np.asarray(sorted(set(int(v) for v in nodes)), dtype=np.int64)
        if ids.size == 0:
            names: Optional[Sequence[str]] = (
                () if self._node_names is not None else None
            )
            return DiGraph(sp.csr_matrix((0, 0)), names)
        if ids[0] < 0 or ids[-1] >= self.n_nodes:
            raise GraphError("subgraph nodes outside the graph's node range")
        sub = self._adjacency[ids][:, ids]
        sub_names = None
        if self._node_names is not None:
            sub_names = [self._node_names[i] for i in ids]
        return DiGraph(sub, sub_names)

    def with_edges(
        self,
        added: Iterable[Tuple[int, int] | Tuple[int, int, float]] = (),
        removed: Iterable[Tuple[int, int]] = (),
    ) -> "DiGraph":
        """Return a new validated graph with edges removed and/or set.

        Parameters
        ----------
        added:
            Iterable of ``(source, target)`` or ``(source, target, weight)``
            items.  Each item *sets* the edge weight: a missing edge is
            inserted, an existing one is overwritten (last occurrence wins).
            Weights must be strictly positive — deleting goes through
            ``removed``.
        removed:
            Iterable of ``(source, target)`` edges to delete; every edge must
            exist in this graph.

        The node set (and any node labels) is preserved; an edge may not
        appear in both lists.  An update batch of the dynamic subsystem is
        one such call (:func:`~repro.dynamic.graph.apply_batch`); it is
        equally useful for one-shot edits of an otherwise immutable graph.
        """
        removed_edges: list = []
        for edge in removed:
            source, target = edge
            source = self._check_node(int(source))
            target = self._check_node(int(target))
            if not self.has_edge(source, target):
                raise GraphError(
                    f"cannot remove missing edge {source} -> {target}"
                )
            removed_edges.append((source, target))
        removed_set = set(removed_edges)
        set_edges: list = []
        for edge in added:
            if len(edge) == 2:
                source, target = edge  # type: ignore[misc]
                weight = 1.0
            elif len(edge) == 3:
                source, target, weight = edge  # type: ignore[misc]
            else:
                raise GraphError(f"added edges must be 2- or 3-tuples, got {edge!r}")
            source = self._check_node(int(source))
            target = self._check_node(int(target))
            weight = float(weight)
            if not (weight > 0 and math.isfinite(weight)):
                raise GraphError(
                    f"added edge weight must be positive and finite, got "
                    f"{weight} for {source} -> {target} (delete via 'removed')"
                )
            if (source, target) in removed_set:
                raise GraphError(
                    f"edge {source} -> {target} appears in both added and removed"
                )
            set_edges.append((source, target, weight))
        if not removed_edges and not set_edges:
            return self
        # Edit the CSR directly, at a cost of one pass over the arrays plus
        # the edits: mask the removed and overwritten entries, append each
        # set edge at the end of its row (a dict keeps the last occurrence),
        # and let the constructor's canonicalisation sort the touched rows.
        adjacency = self._adjacency
        weights = {(source, target): weight for source, target, weight in set_edges}
        keep = np.ones(adjacency.nnz, dtype=bool)
        counts = np.diff(adjacency.indptr)
        for source, target in removed_set.union(weights):
            position = self._edge_position(source, target)
            if position >= 0:
                keep[position] = False
                counts[source] -= 1
        # Row-major order: inserts that share a slot (rows left empty in
        # between) must line up with the row counts below.
        edges = sorted(weights)
        sources = np.array([source for source, _ in edges], dtype=np.int64)
        slots = np.cumsum(counts)[sources]
        np.add.at(counts, sources, 1)
        matrix = sp.csr_matrix(
            (
                np.insert(adjacency.data[keep], slots, [weights[edge] for edge in edges]),
                np.insert(adjacency.indices[keep], slots, [t for _, t in edges]),
                np.concatenate([[0], np.cumsum(counts)]),
            ),
            shape=adjacency.shape,
        )
        return DiGraph(matrix, self._node_names)

    # ------------------------------------------------------------------ #
    # pickling
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """Pickle only the canonical adjacency and the node labels.

        Derived caches (CSC transpose, degree vectors, name→id map, the
        ``is_weighted`` flag) are dropped: they can be large, and every one
        of them is rebuilt lazily on first use after unpickling, so a
        pickled graph costs its adjacency and nothing more.
        """
        return {"adjacency": self._adjacency, "node_names": self._node_names}

    def __setstate__(self, state: dict) -> None:
        self._adjacency = state["adjacency"]
        self._node_names = state["node_names"]
        self._adjacency_csc = None
        self._out_degree = None
        self._in_degree = None
        self._out_weight = None
        self._name_to_id = None
        self._is_weighted = None

    # ------------------------------------------------------------------ #
    # dunder methods
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self.n_nodes

    def __contains__(self, node: object) -> bool:
        return isinstance(node, (int, np.integer)) and 0 <= int(node) < self.n_nodes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        if self.n_nodes != other.n_nodes or self.n_edges != other.n_edges:
            return False
        difference = (self._adjacency - other._adjacency)
        return difference.nnz == 0 or bool(np.allclose(difference.data, 0.0))

    def __hash__(self) -> int:  # pragma: no cover - identity hashing only
        return id(self)

    def __repr__(self) -> str:
        weighted = "weighted " if self.is_weighted else ""
        return f"DiGraph({weighted}n_nodes={self.n_nodes}, n_edges={self.n_edges})"

    # ------------------------------------------------------------------ #
    # internal helpers
    # ------------------------------------------------------------------ #
    def _edge_position(self, source: int, target: int) -> int:
        """Offset of edge ``source -> target`` in the CSR arrays, ``-1`` if absent."""
        start, stop = self._adjacency.indptr[source], self._adjacency.indptr[source + 1]
        row = self._adjacency.indices[start:stop]
        position = int(np.searchsorted(row, target))
        if position < row.size and int(row[position]) == target:
            return int(start) + position
        return -1

    def _check_node(self, node: int) -> int:
        try:
            return check_node_index(node, self.n_nodes)
        except Exception as exc:
            raise NodeNotFoundError(node) from exc
