"""Network serving benchmark: zipfian + churn at >= 1k concurrent connections.

A :class:`ReverseTopKServer` fronts a **sharded memory-mapped** dynamic
service (the deployment shape: partitioned index, out-of-core backing) and
is slammed over real sockets:

* **main phase** — a churn stream (Zipf queries over a hot pool from the
  perf harness's ``zipf_stream``, cut into epochs with one add/remove batch
  from its ``update_batches`` after each) replayed over ~1,100 prewarmed
  concurrent connections against an admission bound of 256: the excess
  **must** shed with 429 + ``Retry-After`` and the well-behaved client
  retries until every query is answered.  Each update batch is a barrier —
  the epoch's queries drain first — and rides the zero-downtime rollover
  path, so every response maps to one definite graph state.
* **overload probe** — a no-retry burst, recording the raw shed rate.

Assertions (the PR's acceptance criteria):

1. every admitted response is **bit-identical** to ``engine.query`` on a
   local mirror service at the served index version — the wire adds
   scheduling, never approximation, even across rollovers;
2. backpressure engaged (shed counter > 0) and the pending queue stayed
   **bounded**: ``peak_pending <= max_pending``;
3. at least 1,000 connections were actually opened against the server.

Latency percentiles and every layer's counters are recorded to
``benchmarks/results/runs/network_serving.json``.
"""

import asyncio
import json
from pathlib import Path
import tempfile
import time

import numpy as np

from repro.core import IndexParams
from repro.dynamic import DynamicReverseTopKService
from repro.net import (
    AdmissionPolicy,
    ReverseTopKClient,
    ServerConfig,
    ServerRejected,
    start_in_thread,
)
from repro.utils.timer import LatencyStats

from benchmarks.perf.inputs import rank_order, update_batches, zipf_stream

N_NODES = 600
K = 10
N_QUERIES = 1_400
N_UPDATE_BATCHES = 3
BATCH_SIZE = 4
# Enough distinct hot queries (40 % of the nodes) that the scan executor,
# not the event loop, is the bottleneck: the pending queue genuinely fills
# and the admission bound is exercised, not just configured.
HOT_POOL = 240
ZIPF_S = 1.1
MAX_RETRIES = 200  # 429s absorbed per query before the replay gives up
CONCURRENCY = 1_100  # prewarmed open sockets
# An epoch's ~467 queries are in flight at once, past this bound: sheds must fire.
MAX_PENDING = 256
MIN_CONNECTIONS = 1_000
N_SHARDS = 4

PARAMS = IndexParams(capacity=20, hub_budget=8)

RESULTS_JSON = Path(__file__).resolve().parent / "results" / "runs" / "network_serving.json"


def _replay(host, port, epochs, batches):
    """Send each epoch's queries at once, then its update batch, over the wire.

    The client holds ``CONCURRENCY`` prewarmed sockets, so the replay runs
    over that many concurrent connections (keep-alive reuse would otherwise
    let a fast server serve the stream over far fewer).  A 429 is retried
    after its ``Retry-After`` hint; any other rejection (a 504 included)
    fails the run.  The update batch is a barrier: the epoch's queries have
    all been answered before it is sent.
    """
    latency = LatencyStats()
    report = {"responses": [], "update_acks": [], "n_shed_retries": 0}

    async def ask(client, query):
        started = time.monotonic()
        retries = 0
        while True:
            try:
                response = await client.query(query, K)
            except ServerRejected as exc:
                if exc.status != 429 or retries == MAX_RETRIES:
                    raise
                retries += 1
                await asyncio.sleep(exc.retry_after or 0.01)
                continue
            latency.record(time.monotonic() - started)
            return response, retries

    async def run():
        async with ReverseTopKClient(
            host, port, max_connections=CONCURRENCY
        ) as client:
            await client.prewarm(CONCURRENCY)
            started = time.monotonic()
            for queries, batch in zip(epochs, batches):
                answers = await asyncio.gather(*[ask(client, q) for q in queries])
                report["responses"].extend(response for response, _ in answers)
                report["n_shed_retries"] += sum(retries for _, retries in answers)
                report["update_acks"].append(await client.update(batch))
            report["seconds"] = time.monotonic() - started

    asyncio.run(run())
    report["latency"] = latency.as_dict()
    return report


def _verify_bit_identity(graph, epochs, batches, responses, update_acks):
    """Replay the stream against a local mirror, epoch by epoch.

    Update batches are barriers in the replay, so every response of an epoch
    was served by the generation current in that epoch; the mirror applies
    the same batches in the same order, and the maintained index is
    bit-identical to the server's (same initial build, same maintainer
    arithmetic).  Returns the number of responses verified.
    """
    mirror = DynamicReverseTopKService.from_graph(graph, PARAMS)
    try:
        verified = 0
        for queries, batch, ack in zip(epochs, batches, update_acks):
            reference = {}  # query -> direct engine result, in this epoch
            for query in queries:
                response = responses[verified]
                if query not in reference:
                    reference[query] = mirror.engine.query(
                        query, K, update_index=False
                    )
                direct = reference[query]
                np.testing.assert_array_equal(response["nodes"], direct.nodes)
                assert np.array_equal(
                    np.asarray(response["proximities"], dtype=np.float64),
                    direct.proximities_to_query[direct.nodes],
                ), f"proximities not bit-identical for {(query, K)}"
                assert response["index_version"] == mirror.engine.index.version
                verified += 1
            mirror.apply_updates(batch)
            assert ack["index_version"] == mirror.engine.index.version
        return verified
    finally:
        mirror.close()


def _overload_probe(host, port, n_requests):
    """One no-retry burst: count served vs shed (the raw shed rate)."""

    async def slam():
        async with ReverseTopKClient(
            host, port, max_connections=n_requests
        ) as client:
            outcomes = await asyncio.gather(
                *[client.query(q % N_NODES, K) for q in range(n_requests)],
                return_exceptions=True,
            )
        served = sum(1 for o in outcomes if isinstance(o, dict))
        shed = sum(
            1
            for o in outcomes
            if isinstance(o, ServerRejected) and o.status == 429
        )
        unexpected = [
            o
            for o in outcomes
            if not isinstance(o, dict)
            and not (isinstance(o, ServerRejected) and o.status == 429)
        ]
        assert not unexpected, f"unexpected outcomes: {unexpected[:3]}"
        return {"n_requests": n_requests, "served": served, "shed": shed}

    return asyncio.run(slam())


def test_network_serving_under_churn():
    from repro.graph import copying_web_graph

    graph = copying_web_graph(N_NODES, out_degree=5, seed=3)
    adjacency = graph.adjacency
    nodes = rank_order(adjacency.indptr, adjacency.indices)
    rng = np.random.default_rng(17)
    stream, _ = zipf_stream(nodes, rng, pool_size=HOT_POOL, s=ZIPF_S)
    epochs = [
        epoch.tolist()
        for epoch in np.array_split(stream[:N_QUERIES], N_UPDATE_BATCHES)
    ]
    batches = update_batches(
        adjacency.indptr,
        adjacency.indices,
        nodes,
        rng,
        n_batches=N_UPDATE_BATCHES,
        ops_per_batch=BATCH_SIZE,
    )

    with tempfile.TemporaryDirectory() as snapshot_dir:
        service = DynamicReverseTopKService.from_graph(
            graph,
            PARAMS,
            snapshot_dir=snapshot_dir,
            n_shards=N_SHARDS,
            memory_budget=0,  # out-of-core: shards memmap the archived layout
        )
        index = service.engine.index
        assert index.n_shards == N_SHARDS
        backing = index.shards[0].backing

        handle = start_in_thread(
            service,
            ServerConfig(
                admission=AdmissionPolicy(
                    max_pending=MAX_PENDING, retry_after_s=0.02
                ),
                max_batch=256,
            ),
        )
        try:
            # --- main phase: churn stream at >= 1k concurrent connections - #
            report = _replay(handle.host, handle.port, epochs, batches)
            metrics = handle.metrics()

            # --- overload probe: raw shed rate without client retries ----- #
            probe = _overload_probe(handle.host, handle.port, CONCURRENCY)
        finally:
            handle.stop()

    # 1. Everything answered, through explicit backpressure.
    assert len(report["responses"]) == N_QUERIES
    assert report["n_shed_retries"] > 0, (
        f"{CONCURRENCY} in-flight vs max_pending={MAX_PENDING}: "
        "backpressure must have engaged"
    )
    tenant = metrics["tenants"]["default"]["counters"]
    assert tenant["shed_queue_full"] == report["n_shed_retries"]

    # 2. The queue stayed bounded (the explicit-backpressure contract).
    assert metrics["admission"]["peak_pending"] <= MAX_PENDING

    # 3. The load was genuinely concurrent at network level.
    n_connections = metrics["server"]["n_connections"]
    assert n_connections >= MIN_CONNECTIONS, (
        f"only {n_connections} connections opened; "
        f"need >= {MIN_CONNECTIONS} for the concurrency claim"
    )

    # 4. Rollovers happened and every answer is bit-identical to a direct
    #    engine call at the served index version.
    assert len(report["update_acks"]) == N_UPDATE_BATCHES
    assert metrics["rollover"]["n_rollovers"] >= 1
    verified = _verify_bit_identity(
        graph, epochs, batches, report["responses"], report["update_acks"]
    )
    assert verified == N_QUERIES

    throughput_qps = len(report["responses"]) / report["seconds"]
    record = {
        "n_nodes": graph.n_nodes,
        "n_edges": graph.n_edges,
        "k": K,
        "workload": (
            f"zipf (s={ZIPF_S}, pool={HOT_POOL}) queries, "
            f"{N_UPDATE_BATCHES} add/remove batches x {BATCH_SIZE} as barriers"
        ),
        "n_queries": N_QUERIES,
        "n_update_batches": N_UPDATE_BATCHES,
        "concurrency": CONCURRENCY,
        "max_pending": MAX_PENDING,
        "n_shards": N_SHARDS,
        "shard_backing": backing,
        "seconds": report["seconds"],
        "throughput_qps": throughput_qps,
        "n_answered": len(report["responses"]),
        "n_shed_retries": report["n_shed_retries"],
        "n_connections": n_connections,
        "client_latency": report["latency"],
        "server_tenant_latency": metrics["tenants"]["default"]["latency"],
        "admission": metrics["admission"],
        "tenant_counters": tenant,
        "coalesce": metrics["coalesce"],
        "overload_probe": probe,
        "rollover": {
            "n_rollovers": metrics["rollover"]["n_rollovers"],
            "n_noop_batches": metrics["rollover"]["n_noop_batches"],
        },
        "n_verified_bit_identical": verified,
    }
    RESULTS_JSON.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_JSON.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    latency = report["latency"]
    print(
        f"\nnetwork serving: {N_QUERIES} queries + {N_UPDATE_BATCHES} churn "
        f"batches over {n_connections} connections "
        f"({CONCURRENCY} concurrent, queue bound {MAX_PENDING}): "
        f"{throughput_qps:.0f} qps, "
        f"{report['n_shed_retries']} sheds retried, "
        f"p50/p95/p99 {latency['p50_seconds'] * 1e3:.1f}/"
        f"{latency['p95_seconds'] * 1e3:.1f}/"
        f"{latency['p99_seconds'] * 1e3:.1f} ms, "
        f"peak queue {metrics['admission']['peak_pending']}, "
        f"{verified} answers verified bit-identical across "
        f"{metrics['rollover']['n_rollovers']} rollovers"
    )
