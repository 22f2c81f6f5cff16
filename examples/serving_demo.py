"""Serving demo: cache, batching, parallel workers, and snapshot warm-start.

Run with::

    python examples/serving_demo.py

The script walks through the serving runtime on top of the reverse top-k
engine:

1. cold-start a service (index built, then archived as a snapshot),
2. warm-start a second service from the snapshot (no rebuild),
3. replay a skewed, repeat-heavy workload through the cache + dedup +
   batch + thread-pool pipeline and compare against the naive loop,
4. inspect the metrics endpoint,
5. persist a refinement and watch it invalidate stale cached answers.
"""

from pathlib import Path
import sys
import tempfile

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro import IndexParams, ReverseTopKService, ServiceConfig
from repro.graph import copying_web_graph
from repro.utils.timer import Timer
from repro.workloads import replay, zipfian_query_workload


def main() -> None:
    graph = copying_web_graph(600, out_degree=6, seed=42)
    params = IndexParams(capacity=50, hub_budget=10)
    config = ServiceConfig(
        cache_capacity=256, max_batch_size=32, n_workers=2, backend="thread"
    )
    print(f"graph: {graph.n_nodes} nodes, {graph.n_edges} edges")

    with tempfile.TemporaryDirectory() as tmp:
        # 1. Cold start: the index is built and archived under a key derived
        #    from (graph fingerprint, index parameters).
        with Timer() as cold_timer:
            service = ReverseTopKService.from_graph(
                graph, params, config=config, snapshot_dir=tmp
            )
        print(
            f"cold start: {cold_timer.elapsed:.2f}s "
            f"(warm_started={service.warm_started})"
        )

        # 2. Warm start: an identical (graph, params) pair hits the snapshot.
        with Timer() as warm_timer:
            warm = ReverseTopKService.from_graph(
                graph, params, config=config, snapshot_dir=tmp
            )
        print(
            f"warm start: {warm_timer.elapsed:.2f}s "
            f"(warm_started={warm.warm_started}, "
            f"{cold_timer.elapsed / max(warm_timer.elapsed, 1e-9):.0f}x faster)"
        )
        warm.close()

        # 3. A skewed workload: a few hot queries dominate, like real traffic.
        workload = zipfian_query_workload(
            graph, 300, k=10, hot_fraction=0.05, seed=7
        )
        n_unique = len(set(workload.queries.tolist()))
        print(f"\nworkload: {len(workload)} requests, {n_unique} unique queries")

        with Timer() as naive_timer:
            naive = [
                service.engine.query(int(q), 10, update_index=False)
                for q in workload.queries
            ]
        report = replay(service, workload, burst_size=50)
        for direct, served in zip(naive, report.results):
            np.testing.assert_array_equal(served.nodes, direct.nodes)
        print(
            f"naive loop : {len(workload) / naive_timer.elapsed:7.0f} qps"
        )
        print(
            f"service    : {report.throughput_qps:7.0f} qps "
            f"({report.throughput_qps * naive_timer.elapsed / len(workload):.1f}x, "
            f"identical answers)"
        )

        # 4. The metrics endpoint explains where the speedup came from.
        metrics = service.metrics()
        print("\nservice metrics:")
        print(f"  requests          : {metrics.n_requests}")
        print(f"  cache hits        : {metrics.n_cache_hits} "
              f"(hit rate {metrics.cache.hit_rate:.0%})")
        print(f"  in-flight dedup   : {metrics.n_deduplicated}")
        print(f"  engine queries    : {metrics.n_engine_queries}")
        print(f"  executor batches  : {metrics.n_batches}")
        print(f"  p50 / p95 latency : {metrics.latency['p50_seconds'] * 1e3:.2f} / "
              f"{metrics.latency['p95_seconds'] * 1e3:.2f} ms")

        # 5. Refinements persist through the write path and bump the index
        #    version, which invalidates every cached answer automatically.
        hot = int(workload.queries[0])
        version_before = service.engine.index.version
        service.refine(hot, 10)
        print(f"\nindex version {version_before} -> {service.engine.index.version} "
              f"after persisting a refinement")
        service.query(hot, 10)  # recomputed under the new version
        print(f"engine queries after refinement: "
              f"{service.metrics().n_engine_queries} (stale cache entry skipped)")
        service.close()

        # 6. Out-of-core serving: partition the index into contiguous
        #    node-range shards served as memmap views over the snapshot
        #    layout.  The answers are bit-identical to the in-RAM engine; the
        #    resident footprint shrinks to the hub matrix plus whatever the
        #    query mix actually touches.
        sharded = ReverseTopKService.from_graph(
            graph, params, config=config, snapshot_dir=tmp,
            n_shards=4,       # four contiguous node-range shards
            memory_budget=0,  # force the out-of-core memmap backing
        )
        index = sharded.engine.index
        print(f"\nsharded serving: {index.n_shards} shards, "
              f"backing={index.shards[0].backing}, "
              f"resident {index.resident_bytes() / 2**20:.2f} MB "
              f"of {index.total_bytes() / 2**20:.2f} MB logical")
        for query, k in [(11, 10), (42, 10)]:
            a = sharded.query(query, k)
            b = service.engine.query(query, k, update_index=False)
            np.testing.assert_array_equal(a.nodes, b.nodes)
        print("sharded answers identical to the in-RAM engine "
              f"(resident now {index.resident_bytes() / 2**20:.2f} MB "
              "after lazily touching candidate states)")
        sharded.close()


if __name__ == "__main__":
    main()
