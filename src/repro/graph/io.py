"""Edge-list and label I/O.

The paper's datasets are distributed as plain-text edge lists (SNAP / LAW
format): one ``source target [weight]`` triple per line, ``#`` comments
allowed.  Node labels (e.g. spam / normal) come as ``node label`` pairs.
"""

from __future__ import annotations

import gzip
import os
from pathlib import Path
from typing import Dict, Iterable, List, Tuple, Union
import warnings

import numpy as np
import scipy.sparse as sp

from ..exceptions import GraphError, SerializationError
from .digraph import DiGraph

PathLike = Union[str, os.PathLike]

#: Default number of edges parsed per chunk by :func:`stream_edge_list`.
STREAM_CHUNK_EDGES = 1 << 20


def stream_edge_list(
    path: PathLike,
    *,
    comment: str = "#",
    delimiter: str | None = None,
    weighted: bool = False,
    n_nodes: int | None = None,
    allow_self_loops: bool = True,
    chunk_edges: int = STREAM_CHUNK_EDGES,
) -> DiGraph:
    """Stream a plain-text (optionally gzipped) edge list straight into CSR.

    The file is parsed in chunks of ``chunk_edges`` rows directly into typed
    numpy arrays and handed to one CSR construction — no per-edge Python
    objects are materialised, so million-edge files ingest in a few times
    the size of the final matrix.

    The result is bit-identical to :func:`~repro.graph.builder.from_edges`
    over the same edges: node ids are used verbatim, duplicate edges are
    summed by CSR construction, and ``n_nodes`` / ``allow_self_loops``
    behave the same way.  Files ending in ``.gz`` are decompressed on the
    fly.  When ``weighted`` is true every data row must carry three columns.
    """
    path = Path(path)
    if chunk_edges <= 0:
        raise SerializationError(f"chunk_edges must be positive, got {chunk_edges}")
    opener = gzip.open if path.suffix == ".gz" else open
    usecols = (0, 1, 2) if weighted else (0, 1)
    dtype = np.float64 if weighted else np.int64
    chunks: List[np.ndarray] = []
    try:
        with opener(path, "rt", encoding="utf-8") as handle:
            with warnings.catch_warnings():
                # loadtxt warns when a chunk read hits EOF with no data rows.
                warnings.simplefilter("ignore", UserWarning)
                while True:
                    chunk = np.loadtxt(
                        handle,
                        dtype=dtype,
                        comments=comment,
                        delimiter=delimiter,
                        usecols=usecols,
                        max_rows=chunk_edges,
                        ndmin=2,
                    )
                    if chunk.shape[0] == 0:
                        break
                    chunks.append(chunk)
    except OSError as exc:
        raise SerializationError(f"cannot read edge list {path}: {exc}") from exc
    except ValueError as exc:
        raise SerializationError(f"malformed edge list {path}: {exc}") from exc
    if not chunks:
        raise SerializationError(f"edge list {path} contains no edges")
    table = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    del chunks
    if weighted:
        sources = table[:, 0].astype(np.int64)
        targets = table[:, 1].astype(np.int64)
        weights = np.ascontiguousarray(table[:, 2])
    else:
        sources = np.ascontiguousarray(table[:, 0])
        targets = np.ascontiguousarray(table[:, 1])
        weights = np.ones(table.shape[0], dtype=np.float64)
    del table
    if not allow_self_loops:
        keep = sources != targets
        if not bool(keep.all()):
            sources = sources[keep]
            targets = targets[keep]
            weights = weights[keep]
    if sources.size and (int(sources.min()) < 0 or int(targets.min()) < 0):
        raise GraphError("node ids must be non-negative integers")
    max_id = int(max(sources.max(), targets.max())) if sources.size else -1
    size = max(max_id + 1, n_nodes or 0)
    if size == 0:
        raise GraphError("cannot build an empty graph")
    matrix = sp.csr_matrix((weights, (sources, targets)), shape=(size, size))
    return DiGraph(matrix)


def write_edge_list(graph: DiGraph, path: PathLike, *, weighted: bool | None = None) -> None:
    """Write ``graph`` as a plain-text edge list.

    ``weighted=None`` (default) writes weights only when the graph is weighted.
    """
    path = Path(path)
    if weighted is None:
        weighted = graph.is_weighted
    try:
        with path.open("w", encoding="utf-8") as handle:
            handle.write(f"# repro edge list: {graph.n_nodes} nodes, {graph.n_edges} edges\n")
            for source, target, weight in graph.edges():
                if weighted:
                    handle.write(f"{source} {target} {weight:.10g}\n")
                else:
                    handle.write(f"{source} {target}\n")
    except OSError as exc:
        raise SerializationError(f"cannot write edge list {path}: {exc}") from exc


def read_node_labels(path: PathLike, *, comment: str = "#") -> Dict[int, str]:
    """Read ``node label`` pairs into a dictionary."""
    path = Path(path)
    labels: Dict[int, str] = {}
    try:
        with path.open("r", encoding="utf-8") as handle:
            for line_number, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith(comment):
                    continue
                parts = line.split()
                if len(parts) < 2:
                    raise SerializationError(
                        f"{path}:{line_number}: expected 'node label', got {line!r}"
                    )
                labels[int(parts[0])] = parts[1]
    except OSError as exc:
        raise SerializationError(f"cannot read labels {path}: {exc}") from exc
    return labels


def write_node_labels(labels: Dict[int, str] | Iterable[Tuple[int, str]], path: PathLike) -> None:
    """Write node labels as ``node label`` lines."""
    if isinstance(labels, dict):
        items = sorted(labels.items())
    else:
        items = sorted(labels)
    path = Path(path)
    try:
        with path.open("w", encoding="utf-8") as handle:
            for node, label in items:
                handle.write(f"{int(node)} {label}\n")
    except OSError as exc:
        raise SerializationError(f"cannot write labels {path}: {exc}") from exc


def labels_to_array(labels: Dict[int, str], n_nodes: int, *, positive: str) -> np.ndarray:
    """Convert a label dict into a 0/1 array where ``positive`` maps to 1."""
    array = np.zeros(n_nodes, dtype=np.int64)
    for node, label in labels.items():
        if 0 <= node < n_nodes and label == positive:
            array[node] = 1
    return array
