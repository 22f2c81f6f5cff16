"""Propagation/scan backend benchmark: buffer reuse, numba, float32 screening.

Three A/B comparisons on one 2,000-node copying-web graph, all answering
bit-identically:

1. blocked vectorized build with the :class:`KernelWorkspace` plane pool and
   the fused in-place product, versus the seed path (``reuse_buffers=False``:
   fresh planes per run, an allocating ``transition @ shares`` per iteration).
   The contract is on the **propagation stage** (``StageTimer``'s ``bca``
   bucket) because that is the only code the workspace touches — the
   materialize stage (spills, dict conversion) is byte-for-byte shared and
   would only dilute the ratio with identical work;
2. the compiled numba inner iteration versus the NumPy blocked build
   (measured only when the optional ``fast`` extra is installed; the
   contract there is ``MIN_NUMBA_SPEEDUP``);
3. the float32-screened scan versus the float64 scan, with the plane bytes
   each query touches during prune + staircase screening.

All configurations are timed interleaved (round-robin, best of
``N_REPEATS``) so machine-speed drift between passes cancels out of the
ratios.  Raw numbers land in ``benchmarks/results/kernel_backends.json``.
"""

import json
from pathlib import Path
import time

import numpy as np
import scipy.sparse as sp

from repro.core import (
    IndexParams,
    PropagationKernel,
    ReverseTopKEngine,
    build_index,
    numba_available,
)
from repro.core.lbi import _compute_hub_matrix, default_hub_selection
from repro.graph import copying_web_graph, transition_matrix
from repro.utils.timer import StageTimer

N_NODES = 2_000
OUT_DEGREE = 5
GRAPH_SEED = 3
CAPACITY = 50
HUB_BUDGET = 8
K = 10
N_QUERIES = 60
N_REPEATS = 3
#: Floor for the pooled-plane + fused-product propagation stage versus the
#: seed's allocating path.  The fused product replaces the per-iteration
#: ``arrivals`` allocation and its extra accumulation pass — roughly two of
#: the ~ten full-plane passes each BCA step performs — so the steady-state
#: gain measures 1.20–1.25x on this config; the floor sits below that
#: envelope to absorb machine noise.
MIN_REUSE_SPEEDUP = 1.15
MIN_NUMBA_SPEEDUP = 3.0

RESULTS_JSON = Path(__file__).resolve().parent / "results" / "kernel_backends.json"


def _interleaved_best(tasks: dict, repeats: int = N_REPEATS) -> dict:
    """Best wall-clock seconds per task over round-robin repeats."""
    for run in tasks.values():  # warmup
        run()
    best = {}
    for _ in range(repeats):
        for name, run in tasks.items():
            start = time.perf_counter()
            run()
            elapsed = time.perf_counter() - start
            if name not in best or elapsed < best[name]:
                best[name] = elapsed
    return best


def _interleaved_best_stages(kernels: dict, sources, repeats: int = N_REPEATS) -> dict:
    """Best per-stage and total build seconds per kernel, round-robin."""
    for kernel in kernels.values():  # warmup
        kernel.run(sources)
    best = {}
    for _ in range(repeats):
        for name, kernel in kernels.items():
            stages = StageTimer()
            start = time.perf_counter()
            kernel.run(sources, stages=stages)
            elapsed = time.perf_counter() - start
            cur = best.get(name)
            if cur is None or stages.stages["bca"] < cur["bca_seconds"]:
                best[name] = {
                    "bca_seconds": stages.stages["bca"],
                    "materialize_seconds": stages.stages["materialize"],
                    "total_seconds": elapsed,
                }
    return best


def test_kernel_backends_and_scan_precision():
    graph = copying_web_graph(N_NODES, out_degree=OUT_DEGREE, seed=GRAPH_SEED)
    matrix = sp.csc_matrix(transition_matrix(graph))
    # Paper-default eta/delta: many short BCA iterations, the regime the
    # plane pool targets (per-iteration allocation is the overhead there).
    params = IndexParams(capacity=CAPACITY, hub_budget=HUB_BUDGET)
    hubs = default_hub_selection(graph, params)
    hub_matrix, _, _ = _compute_hub_matrix(matrix, hubs, params)
    hub_mask = hubs.mask(graph.n_nodes)
    sources = [node for node in range(graph.n_nodes) if not hub_mask[node]]

    kernels = {
        "vectorized_no_reuse": PropagationKernel(
            matrix, hub_mask, params, hubs=hubs, hub_matrix=hub_matrix,
            reuse_buffers=False,
        ),
        "vectorized_reuse": PropagationKernel(
            matrix, hub_mask, params, hubs=hubs, hub_matrix=hub_matrix,
        ),
    }
    if numba_available():
        kernels["numba"] = PropagationKernel(
            matrix, hub_mask, params, hubs=hubs, hub_matrix=hub_matrix,
            backend="numba",
        )

    # Identical outputs across configurations before anything is timed.
    def bounds_by_source(kernel):
        collected = kernel.run(sources)  # rows come back in convergence order
        return collected.bounds[np.argsort(collected.sources)]

    reference = bounds_by_source(kernels["vectorized_reuse"])
    for name, kernel in kernels.items():
        atol = 0.0 if name.startswith("vectorized") else 1e-12
        np.testing.assert_allclose(
            bounds_by_source(kernel), reference, rtol=0, atol=atol
        )

    build_best = _interleaved_best_stages(kernels, sources)
    # The workspace/fused-product contract is on the propagation stage; the
    # numba contract compares the compiled inner iteration against the same
    # stage of the NumPy build.
    reuse_speedup = (
        build_best["vectorized_no_reuse"]["bca_seconds"]
        / build_best["vectorized_reuse"]["bca_seconds"]
    )
    numba_speedup = (
        build_best["vectorized_reuse"]["bca_seconds"]
        / build_best["numba"]["bca_seconds"]
        if "numba" in build_best
        else None
    )

    # ------------------------------------------------------------------ #
    # scan: float64 versus float32-screened, same index
    # ------------------------------------------------------------------ #
    index = build_index(graph, params, transition=matrix, hubs=hubs)
    engines = {
        "scan_float64": ReverseTopKEngine(matrix, index),
        "scan_float32": ReverseTopKEngine(matrix, index, scan_precision="float32"),
    }
    queries = list(range(0, N_NODES, max(1, N_NODES // N_QUERIES)))[:N_QUERIES]
    f64_results = engines["scan_float64"].query_many_readonly(queries, K)
    f32_results = engines["scan_float32"].query_many_readonly(queries, K)
    for a, b in zip(f64_results, f32_results):
        np.testing.assert_array_equal(a.nodes, b.nodes)

    scan_best = _interleaved_best(
        {
            name: (lambda engine=engine: engine.query_many_readonly(queries, K))
            for name, engine in engines.items()
        }
    )

    # Plane bytes per query: the prune stage reads the k-th threshold row
    # (n entries), the staircase stage gathers k rows for each surviving
    # candidate; screened scans additionally re-read float64 entries for the
    # (counted) borderline candidates — at these scales that term is zero.
    mean_candidates = float(
        np.mean([r.statistics.n_candidates + r.statistics.n_hits for r in f64_results])
    )
    bytes_per_query = {
        "scan_float64": (N_NODES + K * mean_candidates) * 8,
        "scan_float32": (N_NODES + K * mean_candidates) * 4,
    }

    record = {
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "capacity": CAPACITY,
        "hub_budget": HUB_BUDGET,
        "propagation_threshold": params.propagation_threshold,
        "residue_threshold": params.residue_threshold,
        "n_sources": len(sources),
        "k": K,
        "n_queries": len(queries),
        "numba_available": numba_available(),
        "build_stages": build_best,
        "workspace_reuse_speedup": reuse_speedup,
        "workspace_reuse_speedup_total": (
            build_best["vectorized_no_reuse"]["total_seconds"]
            / build_best["vectorized_reuse"]["total_seconds"]
        ),
        "numba_speedup": numba_speedup,
        "scan_seconds": scan_best,
        "scan_plane_bytes_per_query": bytes_per_query,
    }
    RESULTS_JSON.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_JSON.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    numba_note = (
        f", numba bca {build_best['numba']['bca_seconds']:.3f} s "
        f"({numba_speedup:.1f}x vs reuse)"
        if numba_speedup is not None
        else ", numba unavailable"
    )
    print(
        f"\nbuild on {graph.n_nodes}-node graph ({len(sources)} sources), "
        f"propagation stage: no-reuse "
        f"{build_best['vectorized_no_reuse']['bca_seconds']:.3f} s, "
        f"reuse {build_best['vectorized_reuse']['bca_seconds']:.3f} s "
        f"({reuse_speedup:.2f}x){numba_note}; "
        f"scan f64 {scan_best['scan_float64'] * 1e3:.1f} ms vs "
        f"f32 {scan_best['scan_float32'] * 1e3:.1f} ms per {len(queries)} queries"
    )

    assert reuse_speedup >= MIN_REUSE_SPEEDUP, (
        f"pooled planes + fused product are only worth {reuse_speedup:.2f}x "
        f"on the propagation stage (required: {MIN_REUSE_SPEEDUP:.2f}x)"
    )
    if numba_speedup is not None:
        assert numba_speedup >= MIN_NUMBA_SPEEDUP, (
            f"compiled inner iteration is only {numba_speedup:.2f}x faster than "
            f"the NumPy propagation stage (required: {MIN_NUMBA_SPEEDUP:.1f}x)"
        )
