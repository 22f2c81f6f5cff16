"""Observability demo: metrics registry, request tracing, kernel profiling.

Run with::

    python examples/observability_demo.py

The script walks the three pillars of the `repro.obs` layer:

1. profile the propagation kernel with an opt-in :class:`KernelProfiler`
   sink (the default sink is a no-op, so un-profiled runs pay nothing);
2. start the network server and send an ``X-Trace`` query — the response
   carries the full span tree: admission wait, coalesce batch, per-batch
   engine scan and its pmpn / scan / refine stages, with wall-clock
   timings at every level;
3. read back the slow-query ring buffer from ``GET /debug/slow``;
4. scrape ``GET /metrics`` twice — once as the historical JSON document,
   once as Prometheus text exposition — both rendered from one registry.
"""

import asyncio
from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.core import IndexParams, PropagationKernel
from repro.dynamic import DynamicReverseTopKService
from repro.graph import copying_web_graph, transition_matrix
from repro.net import ReverseTopKClient, ServerConfig, start_in_thread
from repro.obs import KernelProfiler


def print_span(span: dict, depth: int = 0) -> None:
    annotations = ", ".join(
        f"{key}={value}" for key, value in span["annotations"].items()
    )
    print(f"  {'  ' * depth}{span['name']:<16} "
          f"{span['seconds'] * 1e3:7.2f} ms"
          f"{'  (' + annotations + ')' if annotations else ''}")
    for child in span["children"]:
        print_span(child, depth + 1)


def profile_kernel(graph) -> None:
    # 1. The kernel accepts any profiler sink; the default NULL_PROFILER is
    #    a module-level no-op so production runs skip every hook.
    matrix = transition_matrix(graph)
    hub_mask = np.zeros(graph.n_nodes, dtype=bool)
    hub_mask[:6] = True
    profiler = KernelProfiler()
    kernel = PropagationKernel(
        matrix, hub_mask, IndexParams(capacity=20, hub_budget=6),
        profiler=profiler,
    )
    sources = np.arange(6, 106, dtype=np.int64)
    kernel.run(sources)
    kernel.run(sources)
    print("kernel profile (2 runs, 100 sources each):")
    print(f"  block iterations : {profiler.n_block_iterations} "
          f"({profiler.n_live_columns} live columns)")
    print(f"  product time     : {profiler.product_seconds * 1e3:.1f} ms")
    print(f"  peak plane bytes : {profiler.peak_plane_bytes / 2**10:.0f} KiB")


async def drive(handle) -> None:
    async with ReverseTopKClient(handle.host, handle.port) as client:
        # 2. X-Trace: the span tree rides back on the response.
        response = await client.query(7, 10, trace=True)
        print("\ntraced query (X-Trace: 1), span tree:")
        print_span(response["trace"])

        # A couple of untraced queries to populate metrics and the slow log.
        await asyncio.gather(*[client.query(q, 10) for q in range(8)])

        # 3. The slow-query ring buffer (threshold 0 here, so every request
        #    qualifies; production defaults to 100 ms).
        slow = await client.slow_queries()
        print(f"\n/debug/slow: {slow['n_recorded']} recorded, "
              f"{slow['n_retained']} retained "
              f"(capacity {slow['capacity']})")
        newest = slow["entries"][0]
        print(f"  newest: query={newest['query']} "
              f"tenant={newest['tenant']} "
              f"{newest['seconds'] * 1e3:.2f} ms status={newest['status']}")

        # 4. One registry, two expositions.
        metrics = await client.metrics()
        tenant = metrics["tenants"]["default"]
        print("\n/metrics (JSON): "
              f"{metrics['server']['n_requests']} requests, "
              f"p95 {tenant['latency']['p95_seconds'] * 1e3:.2f} ms")
        text = await client.metrics_text()
        wanted = (
            "repro_http_requests_total",
            "repro_coalesce_submitted_total",
            "repro_request_seconds_count",
            "repro_rollover_generation",
        )
        print("/metrics (Prometheus text), excerpt:")
        for line in text.splitlines():
            if line.startswith(wanted):
                print(f"  {line}")


def main() -> None:
    graph = copying_web_graph(300, out_degree=5, seed=17)
    print(f"graph: {graph.n_nodes} nodes, {graph.n_edges} edges\n")
    profile_kernel(graph)

    service = DynamicReverseTopKService.from_graph(graph)
    handle = start_in_thread(
        service,
        ServerConfig(slow_query_threshold=0.0, slow_log_capacity=32),
    )
    try:
        asyncio.run(drive(handle))
    finally:
        handle.stop()
    print("\nserver stopped")


if __name__ == "__main__":
    main()
