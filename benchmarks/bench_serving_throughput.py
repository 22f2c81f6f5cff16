"""Serving-layer throughput benchmark: service vs. naive per-query loop.

A skewed workload of repeat-heavy requests — Zipf draws over a hot pool,
from the perf harness's own ``zipf_stream`` — is replayed twice against the
same engine over a 2,000-node copying-web graph:

* **naive** — the seed's serving story: one synchronous
  ``engine.query(q, k, update_index=False)`` call per request, no caching,
  no batching, no parallelism;
* **service** — the :class:`ReverseTopKService` pipeline, fed in bursts of
  ``BURST_SIZE``: LRU result cache, in-flight dedup + same-k batching, and a
  thread pool fanning batches over the shared read-only engine.

The benchmark asserts the service answers are identical to the naive loop's
(request by request), that throughput improves by at least ``MIN_SPEEDUP``,
and records the raw numbers to ``benchmarks/results/runs/serving_throughput.json``
so future scaling PRs have a trajectory to compare against.
"""

import json
from pathlib import Path

import numpy as np

from repro.core import IndexParams, ReverseTopKEngine, build_index
from repro.graph import copying_web_graph, transition_matrix
from repro.serving import ReverseTopKService, ServiceConfig
from repro.utils.timer import LatencyStats, Timer

from benchmarks.perf.inputs import rank_order, zipf_stream

N_NODES = 2_000
K = 10
N_REQUESTS = 400
HOT_POOL = 40  # 2 % of the nodes carry the whole stream
ZIPF_S = 1.1
BURST_SIZE = 64  # several bursts, so cross-burst cache hits fire too
MIN_SPEEDUP = 3.0

CONFIG = ServiceConfig(
    cache_capacity=512,
    max_batch_size=64,
    n_workers=2,
)

RESULTS_JSON = Path(__file__).resolve().parent / "results" / "runs" / "serving_throughput.json"


def test_serving_throughput():
    graph = copying_web_graph(N_NODES, out_degree=5, seed=3)
    matrix = transition_matrix(graph)
    params = IndexParams(capacity=50, hub_budget=8)
    index = build_index(graph, params, transition=matrix)
    engine = ReverseTopKEngine(matrix, index)

    adjacency = graph.adjacency
    stream, _ = zipf_stream(
        rank_order(adjacency.indptr, adjacency.indices),
        np.random.default_rng(11),
        pool_size=HOT_POOL,
        s=ZIPF_S,
    )
    requests = [(int(query), K) for query in stream[:N_REQUESTS]]
    n_unique = len({query for query, _ in requests})

    # --- naive per-query loop (the seed's only entry point) -------------- #
    naive_latency = LatencyStats()
    with Timer() as naive_timer:
        naive_results = []
        for query, k in requests:
            result = engine.query(query, k, update_index=False)
            naive_latency.record(result.statistics.seconds)
            naive_results.append(result)
    naive_qps = len(requests) / naive_timer.elapsed

    # --- the serving pipeline ------------------------------------------- #
    with ReverseTopKService(engine, CONFIG) as service:
        with Timer() as service_timer:
            served_results = []
            for start in range(0, len(requests), BURST_SIZE):
                burst = requests[start : start + BURST_SIZE]
                served_results.extend(service.serve(burst))
        metrics = service.metrics()
    service_qps = len(requests) / service_timer.elapsed

    # Identical answers, request by request.
    assert len(served_results) == len(naive_results)
    for naive, served in zip(naive_results, served_results):
        np.testing.assert_array_equal(served.nodes, naive.nodes)
        np.testing.assert_array_equal(
            served.proximities_to_query, naive.proximities_to_query
        )

    speedup = service_qps / naive_qps
    record = {
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "k": K,
        "n_requests": len(requests),
        "n_unique_queries": n_unique,
        "workload": f"zipf (s={ZIPF_S}, pool={HOT_POOL}, bursts of {BURST_SIZE})",
        "capacity": params.capacity,
        "hub_budget": params.hub_budget,
        "config": {
            "cache_capacity": CONFIG.cache_capacity,
            "max_batch_size": CONFIG.max_batch_size,
            "n_workers": CONFIG.n_workers,
        },
        "naive_seconds": naive_timer.elapsed,
        "naive_qps": naive_qps,
        "naive_latency": naive_latency.as_dict(),
        "service_seconds": service_timer.elapsed,
        "service_qps": service_qps,
        "service_metrics": metrics.as_dict(),
        "speedup": speedup,
    }
    RESULTS_JSON.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_JSON.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(
        f"\nserving {len(requests)} skewed requests ({n_unique} unique) on "
        f"{graph.n_nodes}-node graph: naive {naive_qps:.0f} qps, "
        f"service {service_qps:.0f} qps -> {speedup:.1f}x "
        f"(cache hit rate {metrics.cache.hit_rate:.0%}, "
        f"dedup saved {metrics.n_deduplicated})"
    )

    assert speedup >= MIN_SPEEDUP, (
        f"service only {speedup:.1f}x faster than the naive per-query loop "
        f"(required: {MIN_SPEEDUP:.0f}x)"
    )
