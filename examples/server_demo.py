"""Network serving demo: HTTP front door, backpressure, live rollover.

Run with::

    python examples/server_demo.py

The script walks through the `repro.net` stack:

1. start a :class:`ReverseTopKServer` on a background event-loop thread,
   wrapping a :class:`DynamicReverseTopKService`;
2. fire a burst of concurrent queries through the async client and verify
   the answers are bit-identical to calling the engine directly;
3. overload a tight admission policy and watch explicit 429 + Retry-After
   backpressure engage (bounded queue, no silent latency growth);
4. apply a graph update batch through the zero-downtime rollover path and
   observe the generation / index version advance without dropping a query;
5. scrape ``GET /metrics`` for per-tenant percentiles and counters.
"""

import asyncio
from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from repro.dynamic import DynamicReverseTopKService
from repro.graph import copying_web_graph
from repro.net import (
    AdmissionPolicy,
    ReverseTopKClient,
    ServerConfig,
    ServerRejected,
    start_in_thread,
)


def absent_edge(graph):
    """First (u, v) pair not already in the graph (for the update demo)."""
    present = {(u, v) for u, v, _ in graph.edges()}
    for u in range(graph.n_nodes):
        for v in range(graph.n_nodes):
            if u != v and (u, v) not in present:
                return u, v
    raise RuntimeError("graph is complete")


async def drive(handle, service, new_edge) -> None:
    async with ReverseTopKClient(
        handle.host, handle.port, max_connections=128
    ) as client:
        # 2. A concurrent burst: the coalescer funnels all connections onto
        #    shared serve() bursts (whatever arrives while a scan runs leaves
        #    as the next one); answers match the engine bit for bit.
        queries = [(q % 60, 10) for q in range(48)]
        responses = await asyncio.gather(
            *[client.query(q, k) for q, k in queries]
        )
        for (q, k), response in zip(queries, responses):
            direct = service.engine.query(q, k, update_index=False)
            np.testing.assert_array_equal(response["nodes"], direct.nodes)
            np.testing.assert_array_equal(
                response["proximities"], direct.proximities_to_query[direct.nodes]
            )
        print(f"burst of {len(queries)} concurrent queries: "
              "answers bit-identical to the in-process engine")

        # 3. Overload: more simultaneous requests than max_pending allows.
        #    The server sheds the excess with 429 + Retry-After instead of
        #    queueing without bound.
        outcomes = await asyncio.gather(
            *[client.query(q % 60, 10) for q in range(120)],
            return_exceptions=True,
        )
        shed = [o for o in outcomes if isinstance(o, ServerRejected)]
        served = [o for o in outcomes if isinstance(o, dict)]
        print(f"overload burst: {len(served)} served, {len(shed)} shed with "
              f"429 (Retry-After ~{shed[0].retry_after:.3f}s)" if shed else
              "overload burst: all served (host too fast to overload)")

        # 4. Zero-downtime rollover: queries keep flowing while the update
        #    batch is maintained on a clone and swapped in atomically.
        before = await client.query(0, 10)
        ack = await client.update([("add", *new_edge)])
        after = await client.query(0, 10)
        print(f"rollover: generation {before['generation']} -> "
              f"{after['generation']}, index version "
              f"{before['index_version']} -> {after['index_version']} "
              f"(changed={ack['changed']}, "
              f"invalidated={ack['n_invalidated']} states)")

        # 5. The metrics endpoint aggregates every layer.
        metrics = await client.metrics()
        tenant = metrics["tenants"]["default"]
        print("\n/metrics snapshot:")
        print(f"  admitted / completed : {tenant['counters']['admitted']} / "
              f"{tenant['counters']['completed']}")
        print(f"  shed (queue full)    : {tenant['counters']['shed_queue_full']}")
        print(f"  coalesced joins      : {metrics['coalesce']['n_coalesced']}")
        print(f"  serve bursts         : {metrics['coalesce']['n_batches']} "
              f"for {metrics['coalesce']['n_submitted']} submissions")
        print(f"  peak queue depth     : {metrics['admission']['peak_pending']} "
              f"(bound {metrics['admission']['max_pending']})")
        print(f"  p50 / p95 latency    : "
              f"{tenant['latency']['p50_seconds'] * 1e3:.2f} / "
              f"{tenant['latency']['p95_seconds'] * 1e3:.2f} ms")
        print(f"  rollovers            : {metrics['rollover']['n_rollovers']}")


def main() -> None:
    graph = copying_web_graph(60, out_degree=4, seed=11)
    service = DynamicReverseTopKService.from_graph(graph)
    print(f"graph: {graph.n_nodes} nodes, {graph.n_edges} edges")

    # 1. The server owns its event loop on a background thread; the handle
    #    exposes the bound address and a blocking stop().
    config = ServerConfig(
        admission=AdmissionPolicy(max_pending=64, retry_after_s=0.02),
    )
    handle = start_in_thread(service, config)
    print(f"serving on http://{handle.host}:{handle.port}")
    try:
        asyncio.run(drive(handle, service, absent_edge(graph)))
    finally:
        handle.stop()
    print("\nserver stopped; generations drained and closed")


if __name__ == "__main__":
    main()
