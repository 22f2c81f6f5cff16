"""Server observability tests: X-Trace trees, dual /metrics, /debug/slow.

Also pins the coalescer's trace propagation across the asyncio → thread
boundary, including under concurrent waiter cancellation.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
import time

import pytest

from repro.core.pmpn import proximity_to_node
from repro.net import ReverseTopKClient, ServerConfig, start_in_thread
from repro.net.coalesce import QueryCoalescer
from repro.obs import Trace, get_registry
from repro.serving.service import ReverseTopKService


@pytest.fixture()
def obs_handle(dynamic_service):
    """A server that records every query in its slow log (threshold 0)."""
    handle = start_in_thread(
        dynamic_service,
        ServerConfig(slow_query_threshold=0.0, slow_log_capacity=4),
    )
    yield handle
    handle.stop()


def drive(handle, coro_fn, *args, **kwargs):
    async def scenario():
        async with ReverseTopKClient(handle.host, handle.port) as client:
            return await coro_fn(client, *args, **kwargs)

    return asyncio.run(scenario())


def span_names(tree: dict) -> set:
    names = {tree["name"]}
    for child in tree["children"]:
        names |= span_names(child)
    return names


def find_span(tree: dict, name: str):
    if tree["name"] == name:
        return tree
    for child in tree["children"]:
        found = find_span(child, name)
        if found is not None:
            return found
    return None


class TestTraceHeader:
    def test_traced_query_returns_full_span_tree(self, obs_handle):
        async def scenario(client):
            return await client.query(5, 4, trace=True)

        response = drive(obs_handle, scenario)
        tree = response["trace"]
        assert tree["name"] == "request"
        # The acceptance path: admission -> coalesce -> batch -> engine
        # stages (pmpn / scan / refine) all present in one tree.
        names = span_names(tree)
        for required in (
            "admission",
            "await.result",
            "coalesce.batch",
            "service.serve",
            "batch.plan",
            "batch.execute",
            "engine.query",
            "stage.pmpn",
            "stage.scan",
            "stage.refine",
        ):
            assert required in names, f"missing span {required}: {names}"
        annotations = tree["annotations"]
        assert annotations["query"] == 5 and annotations["k"] == 4
        assert annotations["generation"] == 0
        assert annotations["index_version"] == 0
        assert find_span(tree, "admission")["annotations"]["queue_depth"] >= 0
        # Why the request waited: nothing was scanning when it arrived, and
        # it left alone.  The batch it waited for hangs under that wait.
        waited = find_span(tree, "await.result")
        assert waited["annotations"] == {
            "queued_behind": 0,
            "coalesced": False,
            "coalesce_fan_in": 1,
            "burst_size": 1,
        }
        assert find_span(waited, "coalesce.batch") is not None
        engine = find_span(tree, "engine.query")
        assert engine["annotations"]["n_pruned"] >= 0
        assert engine["annotations"]["pmpn_iterations"] > 0

    def test_engine_span_reports_the_pmpn_row_set(self, obs_handle, dynamic_service):
        async def scenario(client):
            return await client.query(5, 4, trace=True)

        engine_span = find_span(drive(obs_handle, scenario)["trace"], "engine.query")
        engine = dynamic_service.engine
        direct = proximity_to_node(engine.transition, 5, plan=engine._pmpn_plan)
        annotations = engine_span["annotations"]
        assert annotations["pmpn_rows"] == direct.rows
        assert annotations["pmpn_edges"] == direct.edges
        assert 0 < annotations["pmpn_rows"] <= engine.n_nodes
        assert 0 < annotations["pmpn_edges"] <= engine.transition.nnz

    def test_timings_sum_consistently(self, obs_handle):
        async def scenario(client):
            return await client.query(7, 5, trace=True)

        tree = drive(obs_handle, scenario)["trace"]
        root_seconds = tree["seconds"]
        admission = find_span(tree, "admission")["seconds"]
        awaited = find_span(tree, "await.result")["seconds"]
        batch = find_span(tree, "coalesce.batch")["seconds"]
        # Sequential phases fit inside the root; the grafted batch subtree
        # (measured on the worker thread) also fits inside the request.
        assert 0.0 <= admission + awaited <= root_seconds
        assert 0.0 < batch <= root_seconds
        engine = find_span(tree, "engine.query")
        stage_sum = sum(
            child["seconds"]
            for child in engine["children"]
            if child["name"].startswith("stage.")
        )
        # Stage buckets attribute exclusive time: their sum never exceeds
        # the engine query's own wall clock.
        assert stage_sum <= engine["seconds"] * 1.05 + 1e-6

    def test_traced_hit_is_answered_on_the_loop(self, obs_handle):
        async def scenario(client):
            miss = await client.query(6, 4, trace=True)
            hit = await client.query(6, 4, trace=True)
            return miss, hit

        miss, hit = drive(obs_handle, scenario)
        assert {k: v for k, v in hit.items() if k != "trace"} == {
            k: v for k, v in miss.items() if k != "trace"
        }
        waited = find_span(hit["trace"], "await.result")
        assert [child["name"] for child in waited["children"]] == ["cache.hit"]
        assert waited["annotations"] == {"queued_behind": 0, "coalesced": False}
        assert "coalesce.batch" not in span_names(hit["trace"])
        # The miss before it kept its tree: the batch under the wait.
        assert find_span(miss["trace"], "coalesce.batch") is not None
        assert find_span(miss["trace"], "cache.hit") is None

    def test_untraced_query_has_no_trace_field(self, obs_handle):
        async def scenario(client):
            return await client.query(3, 4)

        assert "trace" not in drive(obs_handle, scenario)

    def test_coalesced_waiters_share_the_batch_tree(
        self, obs_handle, dynamic_service
    ):
        # Hold the scan until both requests are in the funnel: with no
        # batching timer, whether the second one arrives while the first is
        # still in flight would otherwise be a race between two sockets.
        stats = obs_handle.server.coalesce_stats
        real_serve = dynamic_service.serve

        def held_serve(keys):
            deadline = time.monotonic() + 10.0
            while stats.n_submitted < 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            return real_serve(keys)

        dynamic_service.serve = held_serve  # instance-attr shadow

        async def scenario(client):
            return await asyncio.gather(
                client.query(9, 4, trace=True),
                client.query(9, 4, trace=True),
            )

        first, second = drive(obs_handle, scenario)
        fan_ins = sorted(
            find_span(response["trace"], "await.result")["annotations"][
                "coalesce_fan_in"
            ]
            for response in (first, second)
        )
        assert fan_ins == [2, 2]
        for response in (first, second):
            assert "engine.query" in span_names(response["trace"])


class TestDualMetrics:
    def test_json_and_prometheus_come_from_one_registry(self, obs_handle):
        async def scenario(client):
            for query in range(6):
                await client.query(query, 4)
            text = await client.metrics_text()
            payload = await client.metrics()
            return text, payload

        text, payload = drive(obs_handle, scenario)
        parsed = {}
        for line in text.splitlines():
            if line.startswith("#") or " " not in line:
                continue
            name, value = line.rsplit(" ", 1)
            parsed[name] = float(value)
        assert parsed["repro_coalesce_submitted_total"] == float(
            payload["coalesce"]["n_submitted"]
        )
        assert (
            parsed['repro_request_seconds_count{tenant="default"}'] == 6.0
        )
        assert parsed["repro_rollover_generation"] == 0.0
        # Sequential lone queries: no burst ever held more than one key.
        assert payload["coalesce"]["burst_size_max"] == 1
        # The JSON document keeps its historical shape.
        assert set(payload) == {
            "server",
            "admission",
            "coalesce",
            "rollover",
            "tenants",
            "service",
        }

    def test_loop_hits_are_exported_in_both_formats(self, obs_handle):
        async def scenario(client):
            for query in (1, 2, 1, 1, 2):
                await client.query(query, 4)
            return await client.metrics_text(), await client.metrics()

        text, payload = drive(obs_handle, scenario)
        coalesce = payload["coalesce"]
        assert (coalesce["n_loop_hits"], coalesce["n_batches"]) == (3, 2)
        assert "repro_coalesce_loop_hits_total 3" in text.splitlines()
        assert payload["service"]["n_cache_hits"] == 3

    def test_hub_column_outcomes_survive_rollover(self, obs_handle, small_web_graph):
        """Each generation is a fresh clone re-bound onto the server's
        registry, so the series keeps accumulating across swaps."""
        n_hubs = len(obs_handle.server.rollover.current.service.engine.index.hubs)
        # The copying model only links to older nodes: nothing reaches the
        # youngest two, so editing their out-links re-solves no hub.
        n = small_web_graph.n_nodes
        batches = [
            [("add", source, next(t for t in range(n) if not small_web_graph.has_edge(source, t)))]
            for source in (n - 1, n - 2)
        ]

        async def scenario(client):
            acks = [await client.update(batch) for batch in batches]
            return acks, await client.metrics_text()

        acks, text = drive(obs_handle, scenario)
        assert [ack["generation"] for ack in acks] == [1, 2]
        assert n_hubs > 0
        assert 'repro_maintenance_hub_columns_total{outcome="resolved"} 0' in text
        assert (
            f'repro_maintenance_hub_columns_total{{outcome="reused"}} {2 * n_hubs}'
            in text
        )

    def test_server_registry_is_isolated(self, obs_handle):
        assert obs_handle.server.registry is not get_registry()
        families = obs_handle.server.registry.as_dict()
        assert "repro_http_requests_total" in families
        assert "repro_cache_lookups_total" in families  # service re-bound


class TestSlowLogEndpoint:
    def test_debug_slow_records_and_evicts(self, obs_handle):
        async def scenario(client):
            for query in range(6):
                await client.query(query, 4, trace=query == 5)
            return await client.slow_queries()

        snap = drive(obs_handle, scenario)
        assert snap["capacity"] == 4
        assert snap["n_recorded"] == 6
        assert snap["n_retained"] == 4  # ring evicted the two oldest
        newest = snap["entries"][0]
        assert newest["query"] == 5 and newest["status"] == 200
        assert newest["traced"] is True
        assert newest["trace"]["name"] == "request"
        assert snap["entries"][1]["traced"] is False

    def test_default_threshold_keeps_fast_queries_out(self, server_handle):
        async def scenario(client):
            await client.query(1, 4)
            return await client.slow_queries()

        snap = drive(server_handle, scenario)
        assert snap["threshold_seconds"] == pytest.approx(0.1)
        assert snap["n_recorded"] == 0


class TestCoalescerTracePropagation:
    @pytest.fixture()
    def service(self, small_web_graph):
        service = ReverseTopKService.from_graph(small_web_graph)
        yield service
        if not service.closed:
            service.close()

    @pytest.fixture()
    def executor(self):
        pool = ThreadPoolExecutor(max_workers=1)
        yield pool
        pool.shutdown(wait=True)

    def test_trace_crosses_executor_boundary(self, service, executor):
        async def scenario():
            coalescer = QueryCoalescer(service, executor)
            trace = Trace("request")
            with trace:
                future, coalesced = coalescer.submit(3, 5)
            assert not coalesced
            await asyncio.shield(future)
            await coalescer.aclose()
            return trace

        trace = asyncio.run(scenario())
        tree = trace.to_dict()
        assert find_span(tree, "coalesce.batch") is not None
        # The engine ran on the executor thread, yet its spans attached.
        assert find_span(tree, "engine.query") is not None

    def test_untraced_submits_stay_trace_free(self, service, executor):
        async def scenario():
            coalescer = QueryCoalescer(service, executor)
            future, _ = coalescer.submit(3, 5)
            result = await asyncio.shield(future)
            assert not coalescer._trace_parents
            await coalescer.aclose()
            return result

        result = asyncio.run(scenario())
        assert result.query == 3

    def test_graft_survives_concurrent_waiter_cancellation(
        self, gated_service, executor
    ):
        async def scenario():
            coalescer = QueryCoalescer(gated_service, executor)
            survivor_trace = Trace("survivor")
            doomed_trace = Trace("doomed")
            with survivor_trace:
                future, _ = coalescer.submit(3, 5)
            with doomed_trace:
                same, coalesced = coalescer.submit(3, 5)
            assert same is future and coalesced
            # The doomed waiter is cancelled while the burst is held in the
            # executor; shield keeps the shared future (and the survivor)
            # alive.
            doomed_wait = asyncio.ensure_future(asyncio.shield(future))
            await gated_service.wait_entered()
            doomed_wait.cancel()
            with pytest.raises(asyncio.CancelledError):
                await doomed_wait
            assert not future.done()
            gated_service.release()
            result = await asyncio.shield(future)
            await coalescer.aclose()
            return survivor_trace, doomed_trace, result

        survivor_trace, doomed_trace, result = asyncio.run(scenario())
        assert result.query == 3
        # Both waiters' traces got the shared batch tree — cancellation of
        # one wait never detaches the other's trace (or its result).
        for trace in (survivor_trace, doomed_trace):
            tree = trace.to_dict()
            assert trace.root.annotations["coalesce_fan_in"] == 2
            assert trace.root.annotations["burst_size"] == 1
            batch = find_span(tree, "coalesce.batch")
            assert batch is not None
            assert find_span(batch, "engine.query") is not None
        shared = survivor_trace.root.children[-1]
        assert shared is doomed_trace.root.children[-1]  # grafted by reference

    def test_many_concurrent_traced_waiters_under_cancellation(
        self, service, executor
    ):
        async def scenario():
            coalescer = QueryCoalescer(service, executor)
            traces = []
            futures = []
            for i in range(12):
                trace = Trace(f"r{i}")
                with trace:
                    future, _ = coalescer.submit(i % 4, 5)
                traces.append(trace)
                futures.append(future)

            async def wait(future, cancel: bool):
                if cancel:
                    try:
                        await asyncio.wait_for(
                            asyncio.shield(future), timeout=0.0005
                        )
                    except asyncio.TimeoutError:
                        return None
                return await asyncio.shield(future)

            results = await asyncio.gather(
                *[wait(f, i % 3 == 0) for i, f in enumerate(futures)]
            )
            await coalescer.aclose()
            return traces, results

        traces, results = asyncio.run(scenario())
        assert all(r is not None for i, r in enumerate(results) if i % 3)
        for i, trace in enumerate(traces):
            assert trace.root.annotations["coalesce_fan_in"] == 3  # 12 / 4 keys
            assert find_span(trace.to_dict(), "engine.query") is not None
