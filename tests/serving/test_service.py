"""Tests for the ReverseTopKService façade and the parallel executor."""

import copy

import numpy as np
import pytest

from repro.core import ReverseTopKEngine
from repro.exceptions import InvalidParameterError, QueryError
from repro.serving import (
    ParallelExecutor,
    ReverseTopKService,
    ServiceConfig,
)


def _fresh_service(serving_engine, **overrides):
    return ReverseTopKService(serving_engine, ServiceConfig(**overrides))


class TestServiceAnswers:
    def test_single_query_matches_engine(self, serving_engine):
        service = _fresh_service(serving_engine)
        expected = serving_engine.query(3, 5, update_index=False)
        actual = service.query(3, 5)
        np.testing.assert_array_equal(actual.nodes, expected.nodes)
        np.testing.assert_array_equal(
            actual.proximities_to_query, expected.proximities_to_query
        )

    def test_burst_preserves_request_order(self, serving_engine):
        service = _fresh_service(serving_engine)
        requests = [(5, 5), (2, 5), (5, 5), (9, 3)]
        results = service.serve(requests)
        assert [(r.query, r.k) for r in results] == requests

    def test_duplicates_get_equal_but_independent_results(self, serving_engine):
        # In-flight dedup computes once, but each awaiting caller must get a
        # defensive copy: handing out one shared object let any caller's
        # mutation corrupt every other caller's answer (regression test).
        service = _fresh_service(serving_engine)
        first, second = service.serve([(4, 5), (4, 5)])
        assert first is not second
        assert first.statistics is not second.statistics
        np.testing.assert_array_equal(first.nodes, second.nodes)
        # The heavy arrays are shared — safe, because they are frozen.
        assert first.nodes is second.nodes
        first.statistics.stage_seconds["injected"] = 1.0
        assert "injected" not in second.statistics.stage_seconds
        assert service.metrics().n_deduplicated == 1

    def test_cached_hit_returns_equal_independent_result(self, serving_engine):
        service = _fresh_service(serving_engine)
        cold = service.query(6, 5)
        warm = service.query(6, 5)
        assert warm is not cold  # defensive copy, not the cached object
        np.testing.assert_array_equal(warm.nodes, cold.nodes)
        assert warm.statistics is not cold.statistics
        metrics = service.metrics()
        assert metrics.n_cache_hits == 1
        assert metrics.n_engine_queries == 1

    def test_result_arrays_are_frozen(self, serving_engine):
        # The engine freezes both answer arrays: one result may be shared by
        # the cache and several requesters, so in-place edits must fail
        # loudly instead of corrupting every holder.
        service = _fresh_service(serving_engine)
        result = service.query(4, 5)
        with pytest.raises(ValueError):
            result.nodes[0] = -1
        with pytest.raises(ValueError):
            result.proximities_to_query[0] = 123.0

    def test_concurrent_statistics_mutation_does_not_cross_requesters(
        self, serving_engine
    ):
        # Regression: in-flight dedup used to hand the *same* QueryResult to
        # every awaiting caller, so one caller mutating the (mutable)
        # stage_seconds dict corrupted all the others — and the cached copy.
        import threading

        service = _fresh_service(serving_engine)
        results = service.serve([(4, 5)] * 8)
        barrier = threading.Barrier(8)

        def vandalize(result, tag):
            barrier.wait()
            result.statistics.stage_seconds[f"tag-{tag}"] = float(tag)

        threads = [
            threading.Thread(target=vandalize, args=(result, tag))
            for tag, result in enumerate(results)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for tag, result in enumerate(results):
            extras = [key for key in result.statistics.stage_seconds if key.startswith("tag-")]
            assert extras == [f"tag-{tag}"]
        # The cache's pristine copy never saw any of it.
        cached = service.query(4, 5)
        assert not any(
            key.startswith("tag-") for key in cached.statistics.stage_seconds
        )

    def test_result_arrays_stay_frozen_through_process_round_trip(
        self, serving_engine
    ):
        # Regression: NumPy drops the read-only flag on unpickle, so results
        # shipped back from process-pool workers arrived writable and one
        # caller's in-place edit could corrupt the cached entry.
        import pickle

        result = serving_engine.query(4, 5, update_index=False)
        clone = pickle.loads(pickle.dumps(result))
        assert not clone.nodes.flags.writeable
        assert not clone.proximities_to_query.flags.writeable

    def test_cache_disabled_recomputes(self, serving_engine):
        service = _fresh_service(serving_engine, cache_capacity=0)
        service.query(6, 5)
        service.query(6, 5)
        metrics = service.metrics()
        assert metrics.n_cache_hits == 0
        assert metrics.n_engine_queries == 2

    def test_mixed_k_burst(self, serving_engine):
        service = _fresh_service(serving_engine)
        results = service.serve([(1, 3), (1, 5), (2, 3)])
        expected_3 = serving_engine.query(1, 3, update_index=False)
        expected_5 = serving_engine.query(1, 5, update_index=False)
        np.testing.assert_array_equal(results[0].nodes, expected_3.nodes)
        np.testing.assert_array_equal(results[1].nodes, expected_5.nodes)
        assert service.metrics().n_batches == 2

    def test_invalid_query_node_rejected(self, serving_engine):
        service = _fresh_service(serving_engine)
        with pytest.raises(Exception):
            service.serve([(serving_engine.n_nodes + 5, 5)])

class TestParallelExecutor:
    def test_parallel_matches_sequential(self, serving_engine):
        queries = list(range(0, 20))
        sequential = serving_engine.query_many_readonly(queries, 5)
        with ParallelExecutor(serving_engine, n_workers=3) as executor:
            parallel, reports = executor.run(queries, 5)
        assert len(parallel) == len(sequential)
        for seq, par in zip(sequential, parallel):
            np.testing.assert_array_equal(par.nodes, seq.nodes)
        assert sum(report.n_queries for report in reports) == len(queries)
        assert len(reports) == 3

    def test_run_many_matches_direct_queries(self, serving_engine):
        batches = [(5, list(range(0, 8))), (3, list(range(8, 12))), (5, [1])]
        with ParallelExecutor(serving_engine, n_workers=3) as executor:
            groups, reports = executor.run_many(batches)
        assert [len(group) for group in groups] == [8, 4, 1]
        for (k, queries), group in zip(batches, groups):
            expected = serving_engine.query_many_readonly(queries, k)
            for direct, result in zip(expected, group):
                np.testing.assert_array_equal(result.nodes, direct.nodes)
        assert sum(report.n_queries for report in reports) == 13

    def test_run_many_sequential_and_edge_cases(self, serving_engine):
        executor = ParallelExecutor(serving_engine, n_workers=0)
        groups, reports = executor.run_many([(5, [1, 2]), (3, [4])])
        assert len(groups) == 2 and len(reports) == 2
        assert executor.run_many([]) == ([], [])
        # A single batch degrades to run(), which splits across workers.
        single, single_reports = executor.run_many([(5, [1, 2, 3])])
        assert len(single) == 1 and len(single[0]) == 3

    def test_sequential_fallback_single_report(self, serving_engine):
        executor = ParallelExecutor(serving_engine, n_workers=0)
        results, reports = executor.run([1, 2, 3], 5)
        assert len(results) == 3
        assert len(reports) == 1

    def test_empty_batch(self, serving_engine):
        executor = ParallelExecutor(serving_engine, n_workers=2)
        results, reports = executor.run([], 5)
        assert results == [] and reports == []

    @pytest.mark.parametrize("bad", [3.7, True])
    def test_executor_and_service_reject_what_query_rejects(self, serving_engine, bad):
        # Ids reach the engine as given: coercing them first would answer
        # node 3 for 3.7 and node 1 for True.
        with ParallelExecutor(serving_engine, n_workers=2) as executor:
            with pytest.raises(InvalidParameterError):
                executor.run([0, bad], 5)
            with pytest.raises(InvalidParameterError):
                executor.run_many([(5, [bad]), (3, [1])])
        service = _fresh_service(serving_engine)
        with pytest.raises(InvalidParameterError):
            service.serve([(bad, 5)])
        service.close()

    def test_service_with_thread_workers(self, serving_engine):
        service = _fresh_service(serving_engine, n_workers=2, max_batch_size=4)
        requests = [(q, 5) for q in range(10)]
        results = service.serve(requests)
        for (query, k), result in zip(requests, results):
            expected = serving_engine.query(query, k, update_index=False)
            np.testing.assert_array_equal(result.nodes, expected.nodes)
        service.close()


class TestReadonlyEntryPoint:
    def test_does_not_mutate_index_or_version(self, serving_engine):
        before = serving_engine.index.version
        lower_before = serving_engine.index.columns.lower.copy()
        serving_engine.query_many_readonly(list(range(10)), 5)
        assert serving_engine.index.version == before
        np.testing.assert_array_equal(
            serving_engine.index.columns.lower, lower_before
        )

    def test_rejects_update_params(self, serving_engine):
        from repro.core import QueryParams

        with pytest.raises(QueryError):
            serving_engine.query_many_readonly(
                [1], params=QueryParams(k=5, update_index=True)
            )


class TestScalarScanServing:
    def test_read_only_scalar_scan_writes_nothing(self, small_transition, small_index):
        # Regression: the per-node scan read a dict-backed view of each
        # node, which pinned one object per scanned node into shared state
        # under the *read* lock.  The one (columnar) scan must write nothing
        # either.
        engine = ReverseTopKEngine(small_transition, copy.deepcopy(small_index))
        service = ReverseTopKService(engine, ServiceConfig())
        version = engine.index.version
        results = service.serve([(q, 5) for q in range(0, engine.n_nodes, 7)])
        assert not any(shard.store.overlay for shard in engine.index.shards)
        assert engine.index.version == version
        for result in results:
            expected = engine.query(result.query, 5, update_index=False)
            np.testing.assert_array_equal(result.nodes, expected.nodes)


class TestVersioningAndInvalidation:
    def test_refinement_bumps_version(self, small_transition, small_index):
        engine = ReverseTopKEngine(small_transition, copy.deepcopy(small_index))
        before = engine.index.version
        # Refine every node at full depth: at least one candidate will be
        # written back on a fresh (unwarmed) index.
        for query in range(engine.n_nodes):
            engine.query(query, engine.index.capacity, update_index=True)
        assert engine.index.version > before

    def test_set_state_bumps_version(self, small_transition, small_index):
        index = copy.deepcopy(small_index)
        before = index.version
        index.set_state(0, index.state_arrays(0))
        assert index.version == before + 1

    def test_version_bump_invalidates_cached_answers(
        self, small_transition, small_index
    ):
        engine = ReverseTopKEngine(small_transition, copy.deepcopy(small_index))
        service = ReverseTopKService(engine)
        service.query(3, 5)
        assert service.metrics().n_engine_queries == 1
        # Persisting any refinement bumps the version ⇒ the old entry no
        # longer matches and the answer is recomputed.
        engine.index.set_state(0, engine.index.state_arrays(0))
        service.query(3, 5)
        metrics = service.metrics()
        assert metrics.n_engine_queries == 2
        assert metrics.n_cache_hits == 0

    def test_concurrent_serve_and_refine_stay_correct(
        self, small_transition, small_index, small_exact_matrix, reverse_topk_checker
    ):
        # refine() rewrites the shared columnar views; serve batches scan
        # them from worker threads.  The service's read/write lock must keep
        # the two apart so every served answer is the exact answer, whatever
        # refinement state it was computed from.  Checked tie-aware against
        # the LU oracle: on this graph k-th values tie *exactly* (query 0,
        # k=5: p_u(q) - kth == 0.0 for nodes 10 and 34), and which side of a
        # tie a node lands on legitimately depends on how refined its bounds are.
        import threading

        engine = ReverseTopKEngine(small_transition, copy.deepcopy(small_index))
        service = ReverseTopKService(
            engine, ServiceConfig(cache_capacity=0, n_workers=2, max_batch_size=4)
        )
        n = engine.n_nodes
        errors = []

        def refiner():
            try:
                for query in range(n):
                    service.refine(query, engine.index.capacity)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def server():
            try:
                for _ in range(5):
                    requests = [(q, 5) for q in range(0, n, 3)]
                    for (query, k), result in zip(requests, service.serve(requests)):
                        reverse_topk_checker(result.nodes, small_exact_matrix, query, k)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=refiner)] + [
            threading.Thread(target=server) for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service.close()
        assert not errors

    def test_refine_counts_and_answers(self, small_transition, small_index):
        engine = ReverseTopKEngine(small_transition, copy.deepcopy(small_index))
        service = ReverseTopKService(engine)
        expected = ReverseTopKEngine(
            small_transition, copy.deepcopy(small_index)
        ).query(4, 5, update_index=True)
        result = service.refine(4, 5)
        np.testing.assert_array_equal(result.nodes, expected.nodes)
        assert service.metrics().n_refinements == 1


class TestReadWriteLock:
    def test_queued_writer_blocks_new_readers(self):
        import threading
        import time

        from repro.serving.service import _ReadWriteLock

        lock = _ReadWriteLock()
        order = []
        reader_in = threading.Event()
        release_reader = threading.Event()

        def long_reader():
            with lock.read():
                reader_in.set()
                release_reader.wait(5)

        def writer():
            with lock.write():
                order.append("writer")

        def late_reader():
            with lock.read():
                order.append("reader")

        threads = [threading.Thread(target=long_reader)]
        threads[0].start()
        assert reader_in.wait(5)
        threads.append(threading.Thread(target=writer))
        threads[1].start()
        time.sleep(0.05)  # let the writer queue up behind the reader
        threads.append(threading.Thread(target=late_reader))
        threads[2].start()
        time.sleep(0.05)
        # Neither may proceed while the first reader is inside and a writer
        # is queued — in particular the late reader must NOT slip past.
        assert order == []
        release_reader.set()
        for thread in threads:
            thread.join(5)
        assert order[0] == "writer"
        assert sorted(order) == ["reader", "writer"]


class TestCachedAnswer:
    """The event loop's read: a hit counted as ``serve`` counts one, or None."""

    def test_hit_counts_like_serve_and_miss_counts_nothing(self, serving_engine):
        service = _fresh_service(serving_engine)
        reference = _fresh_service(serving_engine)
        assert service.cached_answer(4, 5) is None
        assert service.metrics().n_requests == 0
        assert service.metrics().cache.misses == 0
        cold = service.query(4, 5)
        warm = service.cached_answer(4, 5)
        assert warm is not None and warm is not cold
        assert warm.statistics is not cold.statistics
        np.testing.assert_array_equal(warm.nodes, cold.nodes)
        reference.query(4, 5)
        reference.query(4, 5)
        ours, theirs = service.metrics(), reference.metrics()
        for name in ("n_requests", "n_cache_hits", "n_engine_queries"):
            assert getattr(ours, name) == getattr(theirs, name)
        assert ours.cache == theirs.cache
        assert ours.serve_seconds > 0

    def test_never_waits_on_a_writer(self, serving_engine):
        import threading
        import time

        service = _fresh_service(serving_engine)
        service.query(4, 5)
        holding, release = threading.Event(), threading.Event()

        def hold_read():
            with service._index_lock.read():
                holding.set()
                release.wait(5)

        def write():
            with service._index_lock.write():
                pass

        reader = threading.Thread(target=hold_read)
        reader.start()
        assert holding.wait(5)
        writer = threading.Thread(target=write)
        writer.start()
        # The writer queues behind the held read side.
        started = time.monotonic()
        while not service._index_lock._writers_waiting:
            assert time.monotonic() - started < 5.0
            time.sleep(0.001)
        assert service.cached_answer(4, 5) is None  # a queued writer: no wait
        release.set()
        reader.join(5)
        writer.join(5)
        with service._index_lock.write():
            assert service.cached_answer(4, 5) is None  # a holding writer
        assert service.cached_answer(4, 5) is not None
        assert service.metrics().n_cache_hits == 1

    def test_counters_add_up_under_threads_and_a_writer(self, serving_engine):
        import sys
        import threading

        service = _fresh_service(serving_engine)
        keys = [(q, 5) for q in range(6)]
        service.serve(keys)
        n_threads, n_rounds = 6, 150
        answered = [0] * n_threads  # requests each thread sent, hit or served
        stop = threading.Event()

        def reader(slot):
            for i in range(n_rounds):
                query, k = keys[(slot + i) % len(keys)]
                if service.cached_answer(query, k) is None:
                    service.serve([(query, k)])
                answered[slot] += 1

        def writer():
            while not stop.is_set():
                with service._index_lock.write():
                    pass

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=reader, args=(i,)) for i in range(n_threads)]
            churn = threading.Thread(target=writer)
            churn.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            stop.set()
            churn.join(30)
        finally:
            sys.setswitchinterval(previous)
        assert not churn.is_alive()
        assert not any(thread.is_alive() for thread in threads)
        metrics = service.metrics()
        assert metrics.n_requests == len(keys) + sum(answered)
        assert metrics.n_cache_hits == metrics.cache.hits
        assert metrics.n_engine_queries == len(keys)  # every miss was a hit
        assert metrics.n_cache_hits == sum(answered)

    def test_disabled_cache_and_closed_service(self, serving_engine):
        from repro.exceptions import ServiceClosedError

        uncached = _fresh_service(serving_engine, cache_capacity=0)
        uncached.query(4, 5)
        assert uncached.cached_answer(4, 5) is None
        service = _fresh_service(serving_engine)
        service.query(4, 5)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.cached_answer(4, 5)


class TestMetrics:
    def test_counters_add_up(self, serving_engine):
        service = _fresh_service(serving_engine)
        service.serve([(1, 5), (2, 5), (1, 5)])  # 2 unique + 1 dedup
        service.serve([(1, 5), (3, 5)])  # 1 hit + 1 unique
        metrics = service.metrics()
        assert metrics.n_requests == 5
        assert metrics.n_cache_hits == 1
        assert metrics.n_deduplicated == 1
        assert metrics.n_engine_queries == 3
        assert metrics.latency["count"] == 3
        assert metrics.serve_seconds > 0
        assert metrics.throughput_qps > 0

    def test_as_dict_is_json_ready(self, serving_engine):
        import json

        service = _fresh_service(serving_engine)
        service.serve([(1, 5)])
        payload = json.dumps(service.metrics().as_dict())
        assert "throughput_qps" in payload

    def test_metrics_waits_for_index_writer(self, serving_engine):
        """Regression: the version in a snapshot is read under the index
        read lock, so a refinement mid-rewrite can never leak a half-bumped
        value — metrics() must queue behind a live writer."""
        import threading

        service = _fresh_service(serving_engine)
        done = threading.Event()
        captured = []

        def read_metrics():
            captured.append(service.metrics().index_version)
            done.set()

        with service._index_lock.write():
            thread = threading.Thread(target=read_metrics)
            thread.start()
            assert not done.wait(0.15)  # blocked behind the writer
        assert done.wait(5.0)
        thread.join(5.0)
        assert captured == [service.engine.index.version]

    def test_clear_cache(self, serving_engine):
        service = _fresh_service(serving_engine)
        service.query(2, 5)
        service.clear_cache()
        service.query(2, 5)
        assert service.metrics().n_engine_queries == 2


class TestFromGraphWarmStart:
    def test_snapshot_round_trip(self, tmp_path, small_web_graph, small_params):
        cold = ReverseTopKService.from_graph(
            small_web_graph, small_params, snapshot_dir=tmp_path
        )
        warm = ReverseTopKService.from_graph(
            small_web_graph, small_params, snapshot_dir=tmp_path
        )
        assert not cold.warm_started
        assert warm.warm_started
        np.testing.assert_array_equal(
            warm.query(5, 5).nodes, cold.query(5, 5).nodes
        )

    def test_without_snapshot_dir(self, small_web_graph, small_params):
        service = ReverseTopKService.from_graph(small_web_graph, small_params)
        assert not service.warm_started
        assert len(service.query(1, 5)) >= 0
