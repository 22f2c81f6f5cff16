"""Warm-start snapshots: content-addressed on-disk index layouts.

Cold start is the dominant serving cost — building the LBI index runs
batched BCA over every node.  The :class:`SnapshotManager` removes it from
the steady state: an index built for ``(graph, params, transition)`` is
stored under a name derived from a SHA-256 over the graph's canonical CSR
arrays, every :class:`IndexParams` field, and the transition matrix the
index was built against, so a service restart with the *same* inputs loads
the layout instead of rebuilding, while any change to any of them produces
a different key and triggers a clean rebuild (never a silently mismatched
index).

A snapshot is the index's on-disk layout
(:meth:`~repro.core.sharding.ReverseTopKIndex.persist`): one directory per
content key and shard count, per-shard files written atomically (temp file
plus ``os.replace``) and the meta archive last.  A crash mid-store can never
corrupt an existing snapshot, and a missing, torn or unreadable layout is
treated as a miss, not an error: the rebuild writes the current layout in
its place and removes every file the current layout does not write (an older
layout version's, say).
"""

from __future__ import annotations

from dataclasses import fields
import hashlib
import os
from pathlib import Path
from typing import Optional, Tuple, Union

import scipy.sparse as sp

from ..core.config import IndexParams
from ..core.sharding import ReverseTopKIndex, build_index, remove_stale_layout_files
from ..exceptions import SerializationError
from ..graph.digraph import DiGraph

PathLike = Union[str, os.PathLike]

#: Hex digest length used in snapshot file names (collision-safe in practice).
_KEY_CHARS = 32


def graph_fingerprint(graph: DiGraph) -> str:
    """SHA-256 over the graph's canonical CSR arrays (and labels, if any).

    :class:`DiGraph` canonicalises its adjacency at construction (sorted
    indices, duplicates summed, explicit zeros removed), so two graphs built
    from equivalent edge sets hash identically regardless of input order.
    """
    adjacency = graph.adjacency
    digest = hashlib.sha256()
    digest.update(f"digraph:{adjacency.shape[0]}:{adjacency.nnz}".encode())
    digest.update(adjacency.indptr.tobytes())
    digest.update(adjacency.indices.tobytes())
    digest.update(adjacency.data.tobytes())
    if graph.node_names is not None:
        for name in graph.node_names:
            digest.update(name.encode())
            digest.update(b"\x00")
    return digest.hexdigest()


def transition_fingerprint(matrix: sp.spmatrix) -> str:
    """SHA-256 over a transition matrix's canonical CSR arrays."""
    # Copy before canonicalising: csr_matrix(csr) shares the caller's arrays
    # and sum_duplicates/sort_indices would otherwise mutate them in place.
    canonical = sp.csr_matrix(matrix, copy=True)
    canonical.sum_duplicates()
    canonical.sort_indices()
    digest = hashlib.sha256()
    digest.update(f"transition:{canonical.shape[0]}:{canonical.nnz}".encode())
    digest.update(canonical.indptr.tobytes())
    digest.update(canonical.indices.tobytes())
    digest.update(canonical.data.tobytes())
    return digest.hexdigest()


def params_fingerprint(params: IndexParams) -> str:
    """SHA-256 over every content-affecting :class:`IndexParams` field.

    Iterating ``dataclasses.fields`` means a future parameter added to
    ``IndexParams`` automatically changes the key — an old snapshot can
    never be mistaken for one built under the new parameter.
    """
    digest = hashlib.sha256()
    for spec in fields(params):
        digest.update(f"{spec.name}={getattr(params, spec.name)!r};".encode())
    return digest.hexdigest()


def snapshot_key(
    graph: DiGraph,
    params: IndexParams,
    transition: Optional[sp.spmatrix] = None,
) -> str:
    """The combined content key for ``(graph, params, transition)``.

    The transition matrix the index was built against participates in the
    key: an index built for, say, the weighted transition must never be
    warm-started for the unweighted one.  ``None`` means "the graph's
    default transition" and hashes as a fixed marker, so callers that let
    :func:`build_index` derive the matrix stay consistent with each other
    (but use a different key than callers passing the same matrix
    explicitly — a spurious rebuild at worst, never a wrong hit).
    """
    digest = hashlib.sha256()
    digest.update(graph_fingerprint(graph).encode())
    digest.update(params_fingerprint(params).encode())
    if transition is None:
        digest.update(b"default-transition")
    else:
        digest.update(transition_fingerprint(transition).encode())
    return digest.hexdigest()[:_KEY_CHARS]


class SnapshotManager:
    """Loads and stores content-addressed index snapshots in one directory."""

    def __init__(self, directory: PathLike) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def sharded_path_for(
        self,
        graph: DiGraph,
        params: IndexParams,
        transition: Optional[sp.spmatrix] = None,
        *,
        n_shards: int,
    ) -> Path:
        """The layout directory a ``(graph, params, transition)`` snapshot lives at.

        The shard count participates in the name (not the content key): two
        partitionings of the same index hold identical values in different
        file layouts, so they coexist side by side and a changed ``n_shards``
        triggers a re-partition, never a mismatched load.
        """
        key = snapshot_key(graph, params, transition)
        return self.directory / f"lbi-{key}-s{int(n_shards)}"

    def store(
        self,
        index: ReverseTopKIndex,
        graph: DiGraph,
        params: Optional[IndexParams] = None,
        *,
        transition: Optional[sp.spmatrix] = None,
    ) -> Path:
        """Persist ``index`` under its content key, shard by shard.

        The dynamic service calls this after every maintenance batch, so the
        maintained index is re-archived under the mutated graph's key.
        """
        effective = params if params is not None else index.params
        return index.persist(
            self.sharded_path_for(
                graph, effective, transition, n_shards=index.n_shards
            )
        )

    def build_or_load(
        self,
        graph: DiGraph,
        params: Optional[IndexParams] = None,
        *,
        transition: Optional[sp.spmatrix] = None,
        n_shards: int = 1,
        memory_budget: Optional[int] = None,
        parallel: Optional[int] = None,
        store_on_miss: bool = True,
    ) -> Tuple[ReverseTopKIndex, bool]:
        """Warm-start: return ``(index, from_snapshot)`` for ``(graph, params)``.

        The key is computed from the *effective* parameters —
        ``params.for_graph`` clamps capacity and hub budget to the graph,
        exactly as :func:`~repro.core.sharding.build_index` does — so the
        snapshot matches what a fresh build would produce.  On a hit the
        layout is opened lazily (or materialised into RAM when
        ``memory_budget`` allows).  On a miss the index is built shard by
        shard, optionally across ``parallel`` worker processes, and, with
        ``store_on_miss``, archived for the next start; under a tight
        ``memory_budget`` each shard streams straight to the layout and is
        served memmap-backed, so peak build memory is one shard plus the hub
        matrix.  Hits and misses, parallel or not, yield the same index.
        """
        effective = (params if params is not None else IndexParams()).for_graph(
            graph.n_nodes
        )
        n_shards = min(int(n_shards), max(1, graph.n_nodes))
        path = self.sharded_path_for(
            graph, effective, transition, n_shards=n_shards
        )
        stale = path.exists()
        if stale:
            try:
                return ReverseTopKIndex.load(path, memory_budget=memory_budget), True
            except SerializationError:
                pass  # torn or stale layout: rebuild below
        writes = store_on_miss or memory_budget is not None
        index = build_index(
            graph,
            effective,
            transition=transition,
            n_shards=n_shards,
            directory=path if writes else None,
            memory_budget=memory_budget,
            n_workers=parallel,
        )
        if stale and writes:
            # The rebuilt layout replaced the files it writes; an older
            # layout's other files would otherwise stay beside it for good.
            remove_stale_layout_files(path, index.n_shards)
        return index, False

    def __repr__(self) -> str:
        return f"SnapshotManager(directory={str(self.directory)!r})"
