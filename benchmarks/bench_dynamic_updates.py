"""Dynamic-update benchmark: delta maintenance vs. rebuild-per-batch.

An interleaved query/update churn stream runs twice against a 2,000-node
copying-web graph.  The perf harness's own generators draw it: Zipf queries
over a hot pool (``zipf_stream``), cut into epochs with one add/remove batch
(``update_batches``) after each:

* **rebuild-per-batch** — the static system's only correct option: every
  update batch throws the index away and rebuilds it from scratch; queries
  run as naive direct engine calls against the latest rebuild;
* **maintained** — the dynamic subsystem: the
  :class:`DynamicReverseTopKService` applies each batch through the
  :class:`IndexMaintainer` (column splice + conservative invalidation +
  hub re-expansion, full rebuild only past the staleness ratio), while
  queries ride the serving pipeline whose version-keyed cache is retired
  exactly once per effective batch.

Both sides run the same pinned hub configuration — selected once on the
initial graph — so delta maintenance is the *only* difference between them
and bit-identity holds down to floating-point knife-edge ties.

The benchmark asserts every query answer (nodes *and* proximity vectors)
is bit-identical between the two sides — the maintained index plus the
serving cache path must be indistinguishable from a from-scratch engine on
the current graph — and that the maintained side is at least
``MIN_SPEEDUP`` faster end-to-end.  Raw numbers go to
``benchmarks/results/runs/dynamic_updates.json`` for the perf trajectory.
"""

import json
from pathlib import Path

import numpy as np

from repro.core import IndexParams, ReverseTopKEngine, build_index
from repro.dynamic import DynamicReverseTopKService, IndexMaintainer, apply_batch
from repro.graph import copying_web_graph, transition_matrix
from repro.serving import ServiceConfig
from repro.utils.timer import Timer

from benchmarks.perf.inputs import rank_order, update_batches, zipf_stream

N_NODES = 2_000
K = 10
N_QUERIES = 240
N_UPDATE_BATCHES = 8
BATCH_SIZE = 4
HOT_POOL = 40  # 2 % of the nodes
ZIPF_S = 1.1
MIN_SPEEDUP = 3.0

PARAMS = IndexParams(capacity=50, hub_budget=8)
CONFIG = ServiceConfig(cache_capacity=512, max_batch_size=64, n_workers=0)

RESULTS_JSON = Path(__file__).resolve().parent / "results" / "runs" / "dynamic_updates.json"


def test_dynamic_update_speedup():
    graph = copying_web_graph(N_NODES, out_degree=5, seed=3)
    adjacency = graph.adjacency
    nodes = rank_order(adjacency.indptr, adjacency.indices)
    rng = np.random.default_rng(11)
    stream, _ = zipf_stream(nodes, rng, pool_size=HOT_POOL, s=ZIPF_S)
    # One epoch of queries, then one update batch, N_UPDATE_BATCHES times.
    epochs = np.array_split(stream[:N_QUERIES], N_UPDATE_BATCHES)
    batches = update_batches(
        adjacency.indptr,
        adjacency.indices,
        nodes,
        rng,
        n_batches=N_UPDATE_BATCHES,
        ops_per_batch=BATCH_SIZE,
    )

    # The hub configuration both sides run: selected once, on day zero.
    hubs = ReverseTopKEngine.build(graph, PARAMS).index.hubs

    # --- rebuild-per-batch baseline ------------------------------------- #
    baseline_results = []
    rebuild_seconds = []
    with Timer() as baseline_timer:
        current = graph
        engine = ReverseTopKEngine.build(graph, PARAMS, hubs=hubs)
        for queries, batch in zip(epochs, batches):
            for query in queries.tolist():
                baseline_results.append(engine.query(query, K, update_index=False))
            current, _ = apply_batch(current, batch)
            with Timer() as rebuild_timer:
                engine = ReverseTopKEngine.build(current, PARAMS, hubs=hubs)
            rebuild_seconds.append(rebuild_timer.elapsed)

    # --- the maintained dynamic service --------------------------------- #
    matrix = transition_matrix(graph)
    index = build_index(
        graph, PARAMS.for_graph(N_NODES), transition=matrix, hubs=hubs
    )
    maintained_engine = ReverseTopKEngine(matrix, index)
    # Measured on this graph, incremental cost stays below a full rebuild
    # well past the conservative default staleness ratio; 0.5 keeps heavy
    # batches on the incremental path.
    maintainer = IndexMaintainer(maintained_engine, rebuild_ratio=0.5)
    maintained_results = []
    reports = []
    with DynamicReverseTopKService(
        maintained_engine, CONFIG, graph=graph, maintainer=maintainer
    ) as service:
        with Timer() as maintained_timer:
            for queries, batch in zip(epochs, batches):
                for query in queries.tolist():
                    maintained_results.append(service.query(query, K))
                reports.append(service.apply_updates(batch))
        metrics = service.metrics()
        update_metrics = service.update_metrics()

    # Bit-identical answers, query by query, across every update boundary.
    assert len(baseline_results) == len(maintained_results) == N_QUERIES
    for direct, served in zip(baseline_results, maintained_results):
        np.testing.assert_array_equal(served.nodes, direct.nodes)
        np.testing.assert_array_equal(
            served.proximities_to_query, direct.proximities_to_query
        )

    speedup = baseline_timer.elapsed / maintained_timer.elapsed
    record = {
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "k": K,
        "workload": (
            f"zipf (s={ZIPF_S}, pool={HOT_POOL}) queries, "
            f"{N_UPDATE_BATCHES} add/remove batches x {BATCH_SIZE}"
        ),
        "n_queries": N_QUERIES,
        "n_update_batches": len(batches),
        "n_updates": sum(len(batch) for batch in batches),
        "capacity": PARAMS.capacity,
        "hub_budget": PARAMS.hub_budget,
        "rebuild_per_batch_seconds": baseline_timer.elapsed,
        "rebuild_seconds_per_batch": rebuild_seconds,
        "maintained_seconds": maintained_timer.elapsed,
        "speedup": speedup,
        "maintenance_reports": [report.as_dict() for report in reports],
        "update_metrics": update_metrics.as_dict(),
        "service_metrics": metrics.as_dict(),
    }
    RESULTS_JSON.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_JSON.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    n_full = sum(report.full_rebuild for report in reports)
    print(
        f"\n{N_QUERIES} queries / {len(batches)} update "
        f"batches on {graph.n_nodes}-node graph: rebuild-per-batch "
        f"{baseline_timer.elapsed:.2f}s, maintained {maintained_timer.elapsed:.2f}s "
        f"-> {speedup:.1f}x (invalidated {update_metrics.n_invalidated} states, "
        f"{n_full} full rebuilds, cache hit rate {metrics.cache.hit_rate:.0%})"
    )

    assert speedup >= MIN_SPEEDUP, (
        f"delta maintenance only {speedup:.1f}x faster than rebuild-per-batch "
        f"(required: {MIN_SPEEDUP:.0f}x)"
    )
