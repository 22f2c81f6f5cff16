"""Index construction benchmark under a tight-index configuration, recorded to JSON.

Builds the LBI index over a 2,000-node copying-web graph under a
tight-index configuration (denser graph, ``eta = 1e-5``, ``delta = 0.05`` —
the regime where offline construction cost actually bites), checks that a
two-worker parallel build is bit-identical to the serial one, and writes the
raw numbers (including the per-phase build reports) to
``benchmarks/results/runs/index_build.json``.
"""

import json
from pathlib import Path
import time

import numpy as np

from repro.core import IndexParams, build_index
from repro.graph import copying_web_graph, transition_matrix

N_NODES = 2_000
OUT_DEGREE = 10

PARAMS = IndexParams(
    capacity=50,
    hub_budget=8,
    propagation_threshold=1e-5,
    residue_threshold=0.05,
)

RESULTS_JSON = Path(__file__).resolve().parent / "results" / "runs" / "index_build.json"


def _timed(build):
    start = time.perf_counter()
    index = build()
    return index, time.perf_counter() - start


def test_index_build(benchmark):
    graph = copying_web_graph(N_NODES, out_degree=OUT_DEGREE, seed=3)
    matrix = transition_matrix(graph)

    # Best of two, so one scheduler hiccup does not become the record.
    serial, first = _timed(lambda: build_index(graph, PARAMS, transition=matrix))
    _, second = _timed(lambda: build_index(graph, PARAMS, transition=matrix))
    serial_seconds = min(first, second)
    parallel, parallel_seconds = _timed(
        lambda: build_index(graph, PARAMS, transition=matrix, n_workers=2)
    )

    # Per-source determinism: the pooled build lands in the same index.
    for name in ("lower", "residual_mass", "is_exact"):
        np.testing.assert_array_equal(
            getattr(parallel.columns, name), getattr(serial.columns, name), name
        )

    # pytest-benchmark trajectory on a small representative build.
    small = copying_web_graph(400, out_degree=OUT_DEGREE, seed=3)
    small_matrix = transition_matrix(small)
    benchmark(lambda: build_index(small, PARAMS, transition=small_matrix))

    record = {
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "out_degree": OUT_DEGREE,
        "capacity": PARAMS.capacity,
        "hub_budget": PARAMS.hub_budget,
        "propagation_threshold": PARAMS.propagation_threshold,
        "residue_threshold": PARAMS.residue_threshold,
        "build_seconds": serial_seconds,
        "parallel2_build_seconds": parallel_seconds,
        "report": serial.build_report.as_dict(),
    }
    RESULTS_JSON.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_JSON.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(
        f"\nindex build on {graph.n_nodes}-node copying-web graph "
        f"({graph.n_edges} edges): {serial_seconds:.2f} s "
        f"(parallel x2: {parallel_seconds:.2f} s)"
    )
