"""Large-graph trajectory: streamed ingest -> sharded build -> serve -> churn.

The paper's biggest evaluation graph (Web-google) has 875k nodes; this
benchmark exercises the same end-to-end pipeline at a configurable fraction
of a default 500k-node synthetic web crawl, with every stage built for
bounded memory:

1. **ingest** — a deterministic power-law edge list is generated on disk
   and streamed into CSR in chunks, never materialising per-edge Python
   objects.
2. **build** — a parallel sharded index build writes residual/retained/hub
   state straight into columnar arrays and spills each shard to a memmap
   layout.
3. **query** — the sharded engine serves a random reverse nearest-neighbor
   workload (``k=1``) through the float64 columnar scan over the memmap
   shards.  At this index strength (coarse ``eta``/``delta``, no hubs —
   chosen so the build itself stays tractable at 500k nodes on one core)
   ``k=1`` is the depth the scan decides almost entirely on its own; deeper
   ``k`` would push hundreds of candidates per query into exact refinement,
   which costs a full power-method run each at this scale.  Growing ``k`` at bounded RSS
   by tightening ``eta`` is the documented next step of the trajectory.
4. **churn** — a batch of edge insertions flows through the dynamic
   maintainer's targeted (array-native) invalidation path.

Each phase records wall-clock seconds and the process peak RSS (``VmHWM``
from ``/proc/self/status``); results land in
``benchmarks/results/runs/large_graph.json``.

Run directly (CI's ``scale-smoke`` lane uses a reduced ``--scale``)::

    PYTHONPATH=src python benchmarks/bench_large_graph.py --scale 0.1
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
import resource
import sys
import tempfile
import time

import numpy as np
import scipy.sparse as sp

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core import IndexParams, ReverseTopKEngine, build_index  # noqa: E402
from repro.dynamic.maintainer import IndexMaintainer  # noqa: E402
from repro.graph import DiGraph, transition_matrix  # noqa: E402
from repro.graph.datasets import write_synthetic_edge_list  # noqa: E402
from repro.graph.io import stream_edge_list  # noqa: E402

RESULTS_JSON = Path(__file__).resolve().parent / "results" / "runs" / "large_graph.json"

#: Coarse, hub-free parameters: at web scale the bench exercises the *system*
#: (streaming, columnar state, memmap shards, maintainer), not rank quality.
CAPACITY = 16
HUB_BUDGET = 0
ETA = 5e-3  # propagation threshold
DELTA = 0.3  # residue threshold


def peak_rss_mb() -> float:
    """Process peak RSS in MiB (``VmHWM``; ``ru_maxrss`` fallback)."""
    try:
        with open("/proc/self/status", "r", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM"):
                    return float(line.split()[1]) / 1024.0
    except OSError:
        pass
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024.0


def _phase(record: dict, name: str, seconds: float, **extra) -> None:
    entry = {"seconds": round(seconds, 3), "peak_rss_mb": round(peak_rss_mb(), 1)}
    entry.update(extra)
    record["phases"][name] = entry
    detail = ", ".join(f"{key}={value}" for key, value in entry.items())
    print(f"[bench_large_graph] {name}: {detail}", flush=True)


def _ingest(args, workdir: Path, record: dict) -> DiGraph:
    started = time.perf_counter()
    n_nodes = max(1_000, int(args.nodes * args.scale))
    path = workdir / f"synthetic-{n_nodes}.txt"
    write_synthetic_edge_list(
        path, n_nodes=n_nodes, avg_out_degree=args.avg_degree, seed=args.seed
    )
    graph = stream_edge_list(path, n_nodes=n_nodes)
    _phase(
        record,
        "ingest",
        time.perf_counter() - started,
        source="synthetic",
        n_nodes=graph.n_nodes,
        n_edges=graph.n_edges,
        file_mb=round(path.stat().st_size / 2**20, 1),
    )
    return graph


def _build(args, graph: DiGraph, matrix, workdir: Path, record: dict):
    params = IndexParams(
        capacity=CAPACITY,
        hub_budget=HUB_BUDGET,
        propagation_threshold=ETA,
        residue_threshold=DELTA,
    ).for_graph(graph.n_nodes)
    started = time.perf_counter()
    index = build_index(
        graph,
        params,
        transition=matrix,
        n_shards=args.shards,
        directory=workdir / "shards",
        memory_budget=0,  # stream every shard out to its memmap layout
        n_workers=args.workers if args.workers > 1 else None,
    )
    seconds = time.perf_counter() - started
    _phase(
        record,
        "build",
        seconds,
        n_shards=index.n_shards,
        n_workers=args.workers,
        index_mb=round(index.total_bytes() / 2**20, 1),
        resident_mb=round(index.resident_bytes() / 2**20, 1),
    )
    return index


def _query(args, engine, n_nodes: int, record: dict) -> None:
    rng = np.random.default_rng(args.seed + 1)
    queries = [int(q) for q in rng.integers(0, n_nodes, size=args.queries)]
    engine.query_many_readonly(queries[: min(8, len(queries))], args.k)  # warmup
    started = time.perf_counter()
    results = engine.query_many_readonly(queries, args.k)
    seconds = time.perf_counter() - started
    _phase(
        record,
        "query",
        seconds,
        n_queries=len(queries),
        k=args.k,
        qps=round(len(queries) / seconds, 1),
        mean_answer_size=round(
            float(np.mean([len(result.nodes) for result in results])), 2
        ),
    )


def _churn(args, graph: DiGraph, engine, record: dict) -> None:
    rng = np.random.default_rng(args.seed + 2)
    n = graph.n_nodes
    sources = rng.integers(0, n, size=args.churn_edges, dtype=np.int64)
    targets = rng.integers(0, n, size=args.churn_edges, dtype=np.int64)
    keep = sources != targets
    sources, targets = sources[keep], targets[keep]
    delta = sp.csr_matrix(
        (np.ones(sources.size), (sources, targets)), shape=(n, n)
    )
    # Fresh edges only (weight 1 where absent); existing weights unchanged.
    mutated = graph.adjacency.maximum(delta)
    new_graph = DiGraph(mutated)
    maintainer = IndexMaintainer(engine, rebuild_ratio=1.0)
    started = time.perf_counter()
    report = maintainer.apply(new_graph, sources.tolist())
    seconds = time.perf_counter() - started
    _phase(
        record,
        "churn",
        seconds,
        edges_added=int(sources.size),
        n_changed_columns=report.n_changed_columns,
        n_invalidated=report.n_invalidated,
        n_rematerialized=report.n_rematerialized,
        full_rebuild=report.full_rebuild,
    )


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=500_000,
                        help="synthetic graph size at --scale 1.0")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fraction of --nodes to actually run")
    parser.add_argument("--avg-degree", type=float, default=6.0)
    parser.add_argument("--shards", type=int, default=8)
    parser.add_argument("--workers", type=int,
                        default=max(1, min(4, os.cpu_count() or 1)))
    parser.add_argument("--queries", type=int, default=24)
    parser.add_argument("--k", type=int, default=1)
    parser.add_argument("--churn-edges", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=str, default=str(RESULTS_JSON))
    args = parser.parse_args(argv)

    record: dict = {
        "config": {
            "nodes": args.nodes,
            "scale": args.scale,
            "avg_degree": args.avg_degree,
            "capacity": CAPACITY,
            "hub_budget": HUB_BUDGET,
            "propagation_threshold": ETA,
            "residue_threshold": DELTA,
            "n_shards": args.shards,
            "n_workers": args.workers,
            "memory_budget": 0,
            "seed": args.seed,
        },
        "phases": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-large-graph-") as tmp:
        workdir = Path(tmp)
        graph = _ingest(args, workdir, record)
        matrix = transition_matrix(graph)
        index = _build(args, graph, matrix, workdir, record)
        engine = ReverseTopKEngine(matrix, index)
        _query(args, engine, graph.n_nodes, record)
        _churn(args, graph, engine, record)
    record["peak_rss_mb"] = round(peak_rss_mb(), 1)

    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"[bench_large_graph] wrote {output}", flush=True)
    return record


if __name__ == "__main__":
    main()
