"""End-to-end server tests over real sockets (threaded server + async client)."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.dynamic import DynamicReverseTopKService
from repro.net import (
    AdmissionPolicy,
    ReverseTopKClient,
    ServerConfig,
    ServerRejected,
    start_in_thread,
)
from repro.net.http import json_payload


def drive(handle, coro_fn, *args, **kwargs):
    """Run one client coroutine against a threaded server."""

    async def scenario():
        async with ReverseTopKClient(
            handle.host, handle.port, max_connections=256
        ) as client:
            return await coro_fn(client, *args, **kwargs)

    return asyncio.run(scenario())


def absent_edges(graph, count):
    present = {(u, v) for u, v, _ in graph.edges()}
    found = []
    for u in range(graph.n_nodes):
        for v in range(graph.n_nodes):
            if u != v and (u, v) not in present:
                found.append((u, v))
                if len(found) == count:
                    return found
    raise RuntimeError("graph is complete")


class TestQueryPath:
    def test_answers_bit_identical_to_direct_engine(
        self, server_handle, dynamic_service
    ):
        async def scenario(client):
            return await asyncio.gather(
                *[client.query(q, 7) for q in range(30)]
            )

        responses = drive(server_handle, scenario)
        for q, response in enumerate(responses):
            direct = dynamic_service.engine.query(q, 7, update_index=False)
            assert response["nodes"] == direct.nodes.tolist()
            assert np.array_equal(
                np.asarray(response["proximities"], dtype=np.float64),
                direct.proximities_to_query[direct.nodes],
            )
            assert response["proximity_width"] == direct.proximity_width
            assert response["index_version"] == 0

    @pytest.mark.parametrize("method", ["POST", "GET"])
    def test_wire_contract_is_the_answer_and_only_the_answer(
        self, server_handle, dynamic_service, method
    ):
        """``nodes`` and ``proximities`` are aligned and answer-sized.

        ``proximities[i]`` is the lower end of ``p_{nodes[i]}(q)`` bit for
        bit, ``proximity_width`` its interval's width; the dense
        length-n vector PMPN computes on the way stays in process, so the
        body is bounded by the answer — an O(n) payload fails the bound.
        """
        engine = dynamic_service.engine
        # k=1 leaves several queries with an empty reverse top-1 set.
        keys = [(q, k) for k in (1, 7, 20) for q in range(0, engine.n_nodes, 3)]

        async def scenario(client):
            if method == "POST":
                return [await client.query(q, k) for q, k in keys]
            return [
                await client._request("GET", f"/query?query={q}&k={k}")
                for q, k in keys
            ]

        n_empty = 0
        for (q, k), response in zip(keys, drive(server_handle, scenario)):
            direct = engine.query(q, k, update_index=False)
            assert response["nodes"] == direct.nodes.tolist()
            assert len(response["proximities"]) == len(response["nodes"])
            assert np.array_equal(
                np.asarray(response["proximities"], dtype=np.float64),
                direct.proximities_to_query[direct.nodes],
            )
            assert response["proximity_width"] == direct.proximity_width
            # json_payload is the server's own serialiser: same bytes.
            assert len(json_payload(response)) <= 256 + 48 * len(response["nodes"])
            if direct.nodes.size == 0:
                n_empty += 1
                assert response["nodes"] == [] and response["proximities"] == []
        assert n_empty > 0, "the contract's empty case was not exercised"

    def test_get_and_post_agree(self, server_handle):
        async def scenario(client):
            post = await client.query(5, 4)
            get = await client._request("GET", "/query?query=5&k=4")
            return post, get

        post, get = drive(server_handle, scenario)
        assert post["nodes"] == get["nodes"]
        assert post["proximities"] == get["proximities"]

    @pytest.mark.parametrize(
        "payload",
        [
            {"query": 10**9, "k": 5},
            {"query": -1, "k": 5},
            {"query": 3, "k": 0},
            {"query": 3, "k": 10**9},
            {"query": "x", "k": 5},
            {"k": 5},
        ],
    )
    def test_invalid_queries_answer_400(self, server_handle, payload):
        async def scenario(client):
            with pytest.raises(ServerRejected) as excinfo:
                await client._request(
                    "POST", "/query", body=json_payload(payload)
                )
            assert excinfo.value.status == 400
            # ...and the connection/coalescer keep working afterwards.
            follow_up = await client.query(2, 5)
            return follow_up

        assert drive(server_handle, scenario)["query"] == 2

    def test_prewarm_pins_sockets_open(self, server_handle):
        async def scenario(client):
            opened = await client.prewarm(32)
            metrics = await client.metrics()
            follow_up = await client.query(1, 5)
            return opened, metrics, follow_up

        opened, metrics, follow_up = drive(server_handle, scenario)
        assert opened == 32
        assert metrics["server"]["open_connections"] >= 32
        assert follow_up["query"] == 1

    def test_unknown_path_404_wrong_method_405(self, server_handle):
        async def scenario(client):
            with pytest.raises(ServerRejected) as nf:
                await client._request("GET", "/nope")
            with pytest.raises(ServerRejected) as wm:
                await client._request("POST", "/metrics", body=b"{}")
            return nf.value.status, wm.value.status

        assert drive(server_handle, scenario) == (404, 405)


class TestBackpressure:
    def test_overload_sheds_429_with_bounded_queue(self, small_web_graph):
        service = DynamicReverseTopKService.from_graph(small_web_graph)
        handle = start_in_thread(
            service,
            ServerConfig(admission=AdmissionPolicy(max_pending=8)),
        )
        try:

            async def scenario(client):
                outcomes = await asyncio.gather(
                    *[client.query(q % 60, 5) for q in range(64)],
                    return_exceptions=True,
                )
                metrics = await client.metrics()
                return outcomes, metrics

            outcomes, metrics = drive(handle, scenario)
            shed = [o for o in outcomes if isinstance(o, ServerRejected)]
            served = [o for o in outcomes if isinstance(o, dict)]
            assert shed, "overload must shed"
            assert all(s.status == 429 for s in shed)
            assert all(s.retry_after is not None for s in shed)
            assert served, "some requests must still be served"
            assert metrics["admission"]["peak_pending"] <= 8
            counters = metrics["tenants"]["default"]["counters"]
            assert counters["shed_queue_full"] == len(shed)
        finally:
            handle.stop()
            if not service.closed:
                service.close()

    def test_rate_limit_sheds_with_retry_after(self, small_web_graph):
        service = DynamicReverseTopKService.from_graph(small_web_graph)
        handle = start_in_thread(
            service,
            ServerConfig(
                admission=AdmissionPolicy(
                    max_pending=128, rate_limit=5.0, burst=2
                )
            ),
        )
        try:

            async def scenario(client):
                results = []
                for q in range(6):
                    try:
                        results.append(await client.query(q, 5))
                    except ServerRejected as exc:
                        results.append(exc)
                return results

            results = drive(handle, scenario)
            shed = [r for r in results if isinstance(r, ServerRejected)]
            assert shed and all(s.status == 429 for s in shed)
            assert all(0 < s.retry_after <= 0.21 for s in shed)
        finally:
            handle.stop()
            if not service.closed:
                service.close()

    def test_expired_deadline_sheds_504_before_work(self, server_handle):
        async def scenario(client):
            with pytest.raises(ServerRejected) as excinfo:
                await client.query(3, 5, deadline_ms=0.001)
            return excinfo.value.status

        assert drive(server_handle, scenario) == 504


class TestRolloverOverHttp:
    def test_update_advances_generation_and_answers_track_graph(
        self, server_handle, dynamic_service, small_web_graph
    ):
        edges = absent_edges(small_web_graph, 2)

        async def scenario(client):
            before = await client.query(0, 5)
            ack = await client.update([("add", *edges[0]), ("add", *edges[1])])
            after = await client.query(0, 5)
            return before, ack, after

        before, ack, after = drive(server_handle, scenario)
        assert before["generation"] == 0 and before["index_version"] == 0
        assert ack["changed"] and ack["generation"] == 1
        assert after["generation"] == 1 and after["index_version"] == 1

    def test_no_torn_versions_under_concurrent_churn(
        self, dynamic_service, small_web_graph
    ):
        """Every response's (generation, index_version) pair must be one the
        server actually served — never a mixture of two epochs."""
        handle = start_in_thread(
            dynamic_service,
            ServerConfig(admission=AdmissionPolicy(max_pending=256)),
        )
        edges = absent_edges(small_web_graph, 4)
        try:

            async def scenario(client):
                stop = asyncio.Event()
                seen = []

                async def churn():
                    for edge in edges:
                        await client.update([("add", *edge)])
                        await asyncio.sleep(0.01)
                    stop.set()

                async def query_forever():
                    while not stop.is_set():
                        response = await client.query(1, 5)
                        seen.append(
                            (response["generation"], response["index_version"])
                        )

                await asyncio.gather(
                    churn(), query_forever(), query_forever()
                )
                return seen

            seen = drive(handle, scenario)
            # Exactly the pairs of real generations: id i serves version i.
            assert set(seen) <= {(i, i) for i in range(len(edges) + 1)}
            # And the stream is monotone: once swapped, never back.
            generations = [generation for generation, _ in seen]
            assert generations == sorted(generations)
        finally:
            handle.stop()

    def test_invalid_update_batch_rejected_wholesale(
        self, server_handle, small_web_graph
    ):
        u, v, _ = next(iter(small_web_graph.edges()))

        async def scenario(client):
            with pytest.raises(ServerRejected) as excinfo:
                await client.update([("add", u, v)])  # edge already exists
            follow_up = await client.query(2, 5)
            return excinfo.value.status, follow_up

        status, follow_up = drive(server_handle, scenario)
        assert status == 400  # the batch is the client's error, not the server's
        assert follow_up["generation"] == 0  # old generation still serving

    @pytest.mark.parametrize(
        "method, target, body",
        [
            ("POST", "/query", b'{"query": true, "k": 5}'),
            ("POST", "/query", b'{"query": 3.9, "k": 5.7}'),
            ("POST", "/query", b'{"query": 1e400, "k": 5}'),
            ("POST", "/query", b'{"query": Infinity, "k": 5}'),
            ("POST", "/query", b'{"query": "3", "k": 5}'),
            ("GET", "/query?query=3_0&k=5", b""),
            ("GET", "/query?query=%203&k=5", b""),
            ("POST", "/update", b'{"updates": [["bogus", 1, 2]]}'),
            ("POST", "/update", b'{"updates": [["add", 1, 2, -1]]}'),
            ("POST", "/update", None),  # adds an edge that already exists
            ("POST", "/query", b'{"query": 2, "k": true}'),
            ("POST", "/query", b'{"query": 2, "k": 0}'),
            ("POST", "/query", b'{"query": 2, "k": 61}'),
            ("POST", "/query", b'{"query": -1, "k": 5}'),
            ("POST", "/query", b'{"query": 60, "k": 5}'),
            ("POST", "/query", b'{"k": 5}'),
            ("POST", "/query", b'{"query": null, "k": 5}'),
            ("POST", "/query", b'{"query": [2], "k": 5}'),
            ("POST", "/query", b"[2, 5]"),
            ("POST", "/query", b'{"query": 2'),
            ("GET", "/query?query=abc&k=5", b""),
            ("GET", "/query?query=1.5&k=5", b""),
            ("GET", "/query?query=2&k=1e3", b""),
            ("GET", "/query?query=&k=5", b""),
            ("GET", "/query?query=2", b""),
            ("GET", "/query?query=-1&k=5", b""),
            ("POST", "/update", b'{"updates": "add"}'),
            ("POST", "/update", b'{"edges": []}'),
            ("POST", "/update", b"[5]"),
            ("POST", "/update", b'{"updates": [5]}'),
            ("POST", "/update", b'{"updates": [["add", 1]]}'),
            ("POST", "/update", b'{"updates": [["add", 1.5, 2]]}'),
            ("POST", "/update", b'{"updates": [["add", true, 2]]}'),
            ("POST", "/update", b'{"updates": [["add", "1", 2]]}'),
            ("POST", "/update", b'{"updates": [["add", -1, 2]]}'),
            ("POST", "/update", b'{"updates": [["add", 1, 99999]]}'),
            ("POST", "/update", b'{"updates": [["add", 1, 2, "x"]]}'),
            ("POST", "/update", b'{"updates": [["add", 1, 2, Infinity]]}'),
            ("POST", "/update", b'{"updates": [["remove", 0, 0]]}'),
            ("POST", "/update", b'{"updates": [["set_weight", 0, 59, 2.0]]}'),
        ],
    )
    def test_malformed_input_is_a_client_error(
        self, server_handle, small_web_graph, method, target, body
    ):
        """No coercion, no 500: each input answers 4xx and changes nothing."""
        if body is None:
            u, v, _ = next(iter(small_web_graph.edges()))
            body = json_payload({"updates": [["add", u, v]]})

        async def scenario(client):
            before = await client.query(2, 5)
            with pytest.raises(ServerRejected) as excinfo:
                await client._request(method, target, body=body)
            after = await client.query(2, 5)
            return excinfo.value.status, before, after

        status, before, after = drive(server_handle, scenario)
        assert 400 <= status < 500
        assert after["index_version"] == before["index_version"]
        assert after["generation"] == before["generation"]


class TestMetricsAndShutdown:
    def test_metrics_shape(self, server_handle):
        async def scenario(client):
            await asyncio.gather(
                *[client.query(q % 10, 5, tenant="acme") for q in range(20)]
            )
            return await client.metrics()

        metrics = drive(server_handle, scenario)
        assert metrics["admission"]["pending"] == 0
        assert metrics["coalesce"]["n_submitted"] >= 20
        acme = metrics["tenants"]["acme"]
        assert acme["counters"]["admitted"] == 20
        assert acme["counters"]["completed"] == 20
        assert acme["latency"]["count"] == 20.0
        assert 0 < acme["latency"]["p50_seconds"] <= acme["latency"]["p99_seconds"]
        assert "service" in metrics and "rollover" in metrics

    def test_graceful_stop_closes_generations(
        self, dynamic_service, small_web_graph
    ):
        handle = start_in_thread(dynamic_service, ServerConfig())

        async def scenario(client):
            return await client.query(3, 5)

        assert drive(handle, scenario)["query"] == 3
        handle.stop()
        assert dynamic_service.closed
        handle.stop()  # idempotent

    def test_healthz(self, server_handle):
        async def scenario(client):
            return await client.healthz()

        assert drive(server_handle, scenario) == {"status": "ok"}
