"""Benchmark-owned, seed-driven inputs with fingerprints.

The program receives only what is generated here: a graph (from the
program's public generators, fingerprinted by its CSR arrays), a
rank-stratified query stream, and — for the wire workload — a Zipf hot pool
and valid add/remove batches that track the evolving edge set.  None of it
comes from ``repro.workloads``: a change to the program's own workload
helpers must not be able to move this benchmark's inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import hashlib
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from .workloads import N_STRATA, WARMUP_QUERIES, Workload

#: Upper bound on generated stream length (cyclic streams redraw per epoch).
MAX_STREAM = 200_000
#: Update batches generated up front; a run applies as many as fit its time.
MAX_BATCHES = 96

UpdateOp = Tuple[str, int, int]


@dataclass
class Inputs:
    """Everything one run feeds the program, plus its fingerprints."""

    n_nodes: int
    indptr: np.ndarray  # CSR of the binary adjacency, rows = source
    indices: np.ndarray
    stream: np.ndarray  # query nodes in issue order
    warmup: np.ndarray  # untimed queries, disjoint from the stream
    batches: List[List[UpdateOp]] = field(default_factory=list)
    graph: object = None  # repro DiGraph (engine / wire kinds)
    edge_list: Optional[Path] = None  # on-disk edge list (service kind)
    graph_sha: str = ""
    stream_sha: str = ""


def _sha(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    return digest.hexdigest()


def rank_order(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Nodes sorted by in-degree, highest first (stable, so ties keep id order)."""
    n = indptr.size - 1
    in_degree = np.bincount(indices, minlength=n)
    return np.argsort(-in_degree, kind="stable")


def band_nodes(order: np.ndarray, band: Tuple[float, float]) -> np.ndarray:
    """The slice of ``order`` whose rank fraction lies in ``[lo, hi)``."""
    n = order.size
    lo, hi = int(band[0] * n), max(int(band[1] * n), int(band[0] * n) + 1)
    return order[lo:hi]


def stratified_epoch(nodes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One pass over ``nodes`` (sorted by rank) in rank-balanced order.

    The nodes are cut into ``N_STRATA`` contiguous rank strata; each stratum
    is permuted and its i-th draw gets the key ``(i + u) / len(stratum)``
    with one random offset ``u`` per stratum.  Sorting by key interleaves
    the strata evenly, so every prefix of the epoch covers the rank band in
    proportion — a run that stops early still saw a balanced sample.
    """
    strata = [s for s in np.array_split(nodes, min(N_STRATA, nodes.size)) if s.size]
    keys = np.concatenate(
        [(rng.permutation(s.size) + rng.random()) / s.size for s in strata]
    )
    return nodes[np.argsort(keys, kind="stable")]


def query_stream(
    nodes: np.ndarray, rng: np.random.Generator, *, cyclic: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """``(stream, warmup)``: stratified epochs over ``nodes`` minus the warm-up."""
    first = stratified_epoch(nodes, rng)
    n_warm = min(WARMUP_QUERIES, max(first.size // 4, 1))
    warmup, body = first[-n_warm:], first[:-n_warm]
    if not cyclic:
        return body, warmup
    epochs = [body]
    total = body.size
    while total < MAX_STREAM:
        epochs.append(stratified_epoch(body, rng))
        total += body.size
    return np.concatenate(epochs)[:MAX_STREAM], warmup


def zipf_stream(
    nodes: np.ndarray, rng: np.random.Generator, *, pool_size: int, s: float
) -> Tuple[np.ndarray, np.ndarray]:
    """``(stream, warmup)``: Zipf(``s``) draws over a rank-balanced hot pool."""
    epoch = stratified_epoch(nodes, rng)
    pool = epoch[:pool_size]
    warmup = epoch[pool_size : pool_size + WARMUP_QUERIES]
    weights = 1.0 / np.arange(1, pool.size + 1) ** s
    stream = rng.choice(pool, size=MAX_STREAM, p=weights / weights.sum())
    return stream, warmup


def update_batches(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: np.ndarray,
    rng: np.random.Generator,
    *,
    n_batches: int,
    ops_per_batch: int,
) -> List[List[UpdateOp]]:
    """Valid add/remove batches against the edge set as it evolves.

    Every op edits the out-links of a node drawn from ``sources``.  Each
    batch removes ``ops_per_batch // 2`` existing edges (never a source's
    last out-edge, so no node turns dangling) and adds as many absent,
    non-loop edges to uniform targets; the tracked edge set is advanced batch
    by batch, so a later batch may remove what an earlier one added.
    """
    n = indptr.size - 1
    out = {int(u): indices[indptr[u] : indptr[u + 1]].tolist() for u in sources}
    batches: List[List[UpdateOp]] = []
    for _ in range(n_batches):
        batch: List[UpdateOp] = []
        edited = set()
        while len(batch) < ops_per_batch:
            u = int(rng.choice(sources))
            if u in edited:
                continue
            if len(batch) < ops_per_batch // 2:
                if len(out[u]) < 2:
                    continue
                v = out[u].pop(int(rng.integers(len(out[u]))))
                batch.append(("remove", u, v))
            else:
                v = int(rng.integers(n))
                if v == u or v in out[u]:
                    continue
                out[u].append(v)
                batch.append(("add", u, v))
            edited.add(u)
        batches.append(batch)
    return batches


def edge_set(indptr: np.ndarray, indices: np.ndarray) -> set:
    """The CSR as a ``{(u, v)}`` set, the form the oracle's replay advances."""
    sources = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    return set(zip(sources.tolist(), indices.tolist()))


def apply_batch(edges: set, batch: List[UpdateOp]) -> None:
    """Advance a ``{(u, v)}`` edge set by one batch (the oracle's replay)."""
    for op, u, v in batch:
        if op == "add":
            edges.add((u, v))
        else:
            edges.remove((u, v))


def _csr_from_edge_list(path: Path, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The benchmark's own read of the on-disk edge list (duplicates merged)."""
    table = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
    unique = np.unique(table[:, 0] * n + table[:, 1])
    sources, targets = unique // n, unique % n
    indptr = np.concatenate(([0], np.cumsum(np.bincount(sources, minlength=n))))
    return indptr.astype(np.int64), targets.astype(np.int64)


def make_inputs(workload: Workload, seed: int, workdir: Path) -> Inputs:
    """Generate one run's inputs; the same ``(workload, seed)`` gives the same inputs.

    The graph is the workload's fixed dataset (``workload.graph_seed``), like
    the paper's named graphs; ``seed`` drives everything sent to it — the
    query draws, the hot pool and its Zipf stream, the update batches.
    """
    n = workload.n_nodes
    graph = None
    edge_list = None
    if workload.kind == "service":
        from repro.graph.datasets import write_synthetic_edge_list

        edge_list = workdir / f"edges-{workload.name}.txt"
        write_synthetic_edge_list(
            edge_list, n_nodes=n, avg_out_degree=6, seed=workload.graph_seed
        )
        indptr, indices = _csr_from_edge_list(edge_list, n)
    else:
        from repro.graph import copying_web_graph

        graph = copying_web_graph(n, out_degree=10, seed=workload.graph_seed)
        adjacency = graph.adjacency
        indptr = adjacency.indptr.astype(np.int64)
        indices = adjacency.indices.astype(np.int64)

    order = rank_order(indptr, indices)
    nodes = band_nodes(order, workload.rank_band)
    rng = np.random.default_rng([seed, 1])
    batches: List[List[UpdateOp]] = []
    if workload.kind == "wire":
        stream, warmup = zipf_stream(
            nodes, rng, pool_size=workload.hot_pool, s=workload.zipf_s
        )
        batches = update_batches(
            indptr,
            indices,
            band_nodes(order, workload.update_source_band),
            np.random.default_rng([seed, 2]),
            n_batches=MAX_BATCHES,
            ops_per_batch=workload.ops_per_batch,
        )
    else:
        stream, warmup = query_stream(nodes, rng, cyclic=workload.cyclic)
    flat_batches = np.array(
        [(op == "add", u, v) for batch in batches for op, u, v in batch],
        dtype=np.int64,
    )
    return Inputs(
        n_nodes=n,
        indptr=indptr,
        indices=indices,
        stream=stream,
        warmup=warmup,
        batches=batches,
        graph=graph,
        edge_list=edge_list,
        graph_sha=_sha(indptr, indices),
        stream_sha=_sha(stream, warmup, flat_batches),
    )
