"""Coalescer tests: dedup, load-adaptive batching, cancellation/poisoning safety.

Scenarios that depend on *when* a burst finishes hold it in the executor
with the ``gated_service`` fixture (``tests/net/conftest.py``) instead of
sleeping: the coalescer has no timer, so neither do its tests.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.exceptions import ServiceClosedError
from repro.net.coalesce import CoalesceStats, QueryCoalescer
from repro.obs import Trace
from repro.serving.service import ReverseTopKService


@pytest.fixture()
def service(small_web_graph):
    service = ReverseTopKService.from_graph(small_web_graph)
    yield service
    if not service.closed:
        service.close()


@pytest.fixture()
def executor():
    pool = ThreadPoolExecutor(max_workers=1)
    yield pool
    pool.shutdown(wait=True)


def run(coro):
    return asyncio.run(coro)


class TestDedupAndBatching:
    def test_identical_keys_share_one_future(self, service, executor):
        async def scenario():
            coalescer = QueryCoalescer(service, executor)
            first, was_first = coalescer.submit(3, 5)
            second, was_second = coalescer.submit(3, 5)
            assert first is second
            assert (was_first, was_second) == (False, True)
            result = await asyncio.shield(first)
            await coalescer.aclose()
            return result

        result = run(scenario())
        direct = service.engine.query(3, 5, update_index=False)
        np.testing.assert_array_equal(result.nodes, direct.nodes)

    def test_burst_becomes_one_service_call(self, service, executor):
        async def scenario():
            stats = CoalesceStats()
            coalescer = QueryCoalescer(service, executor, stats=stats)
            futures = [coalescer.submit(q, 5)[0] for q in range(10)]
            results = await asyncio.gather(*map(asyncio.shield, futures))
            await coalescer.aclose()
            return stats, results

        stats, results = run(scenario())
        assert stats.n_batches == 1
        assert stats.n_executed == 10
        assert [r.query for r in results] == list(range(10))

    def test_max_batch_splits_same_tick_arrivals(self, gated_service, executor):
        async def scenario():
            stats = CoalesceStats()
            coalescer = QueryCoalescer(
                gated_service, executor, max_batch=4, stats=stats
            )
            futures = [coalescer.submit(q, 5)[0] for q in range(6)]
            await gated_service.wait_entered()
            # One scan thread: the cap's overflow waits for the first burst.
            assert gated_service.bursts == [[(q, 5) for q in range(4)]]
            gated_service.release(2)
            await asyncio.gather(*map(asyncio.shield, futures))
            await coalescer.aclose()
            return stats

        stats = run(scenario())
        assert [len(burst) for burst in gated_service.bursts] == [4, 2]
        assert (stats.n_batches, stats.n_executed) == (2, 6)
        assert stats.burst_size_max == 4

    def test_results_are_bit_identical_to_direct_engine(self, service, executor):
        async def scenario():
            coalescer = QueryCoalescer(service, executor)
            futures = [coalescer.submit(q, 7)[0] for q in range(20)]
            results = await asyncio.gather(*map(asyncio.shield, futures))
            await coalescer.aclose()
            return results

        results = run(scenario())
        for result in results:
            direct = service.engine.query(result.query, 7, update_index=False)
            np.testing.assert_array_equal(result.nodes, direct.nodes)
            np.testing.assert_array_equal(
                result.proximities_to_query, direct.proximities_to_query
            )


class TestCancellationIsolation:
    def test_cancelled_waiter_does_not_cancel_siblings(self, service, executor):
        """One client disconnecting mid-batch must not starve the others."""

        async def scenario():
            coalescer = QueryCoalescer(service, executor)
            shared, _ = coalescer.submit(3, 5)
            sibling_wait = asyncio.ensure_future(asyncio.shield(shared))
            doomed_wait = asyncio.ensure_future(asyncio.shield(shared))
            await asyncio.sleep(0)  # let both waits attach
            doomed_wait.cancel()
            result = await sibling_wait
            assert not shared.cancelled()
            await coalescer.aclose()
            return result

        result = run(scenario())
        assert result.query == 3

    def test_cancelled_request_does_not_poison_dedup_table(
        self, service, executor
    ):
        """After a cancelled wait completes the batch, the key must be
        re-submittable and yield a fresh, correct answer."""

        async def scenario():
            coalescer = QueryCoalescer(service, executor)
            shared, _ = coalescer.submit(4, 5)
            wait = asyncio.ensure_future(asyncio.shield(shared))
            await asyncio.sleep(0)
            wait.cancel()
            # The shared batch still runs to completion underneath.
            await asyncio.wait_for(asyncio.shield(shared), timeout=10.0)
            assert coalescer.n_inflight == 0
            again, coalesced = coalescer.submit(4, 5)
            assert not coalesced  # a fresh future, not the settled one
            result = await asyncio.shield(again)
            await coalescer.aclose()
            return result

        result = run(scenario())
        direct = service.engine.query(4, 5, update_index=False)
        np.testing.assert_array_equal(result.nodes, direct.nodes)


class TestFailureIsolation:
    def test_failed_batch_fails_waiters_and_clears_table(self, executor):
        class ExplodingService:
            def cached_answer(self, query, k):
                return None

            def serve(self, keys):
                raise RuntimeError("engine exploded")

        async def scenario():
            stats = CoalesceStats()
            coalescer = QueryCoalescer(ExplodingService(), executor, stats=stats)
            future, _ = coalescer.submit(1, 5)
            with pytest.raises(RuntimeError, match="engine exploded"):
                await asyncio.shield(future)
            # The failure must not poison the key for later submissions.
            assert coalescer.n_inflight == 0
            retry, coalesced = coalescer.submit(1, 5)
            assert not coalesced
            await coalescer.aclose()
            return stats

        stats = run(scenario())
        assert stats.n_failed_batches == 1

    def test_close_fails_buffered_waiters(self, gated_service, executor):
        async def scenario():
            coalescer = QueryCoalescer(gated_service, executor)
            running, _ = coalescer.submit(1, 5)
            await gated_service.wait_entered()
            buffered, _ = coalescer.submit(2, 5)  # queued behind the scan
            closing = asyncio.ensure_future(coalescer.aclose())
            with pytest.raises(ServiceClosedError):
                await buffered
            with pytest.raises(ServiceClosedError):
                coalescer.submit(3, 5)
            # The running burst is awaited, not abandoned.
            assert not closing.done()
            gated_service.release()
            await closing
            return await running

        assert run(scenario()).query == 1
        assert gated_service.bursts == [[(1, 5)]]

    def test_validation_rejects_bad_knobs(self, service, executor):
        with pytest.raises(ValueError):
            QueryCoalescer(service, executor, scan_threads=0)
        with pytest.raises(ValueError):
            QueryCoalescer(service, executor, max_batch=0)


class TestLoadAdaptiveDispatch:
    """No timer: idle → next tick; busy → buffer until a burst completes."""

    def test_lone_submit_dispatches_within_two_ticks_without_a_timer(
        self, service
    ):
        class CountingExecutor(ThreadPoolExecutor):
            n_handed = 0

            def submit(self, fn, *args, **kwargs):
                self.n_handed += 1
                return super().submit(fn, *args, **kwargs)

        async def scenario(pool):
            loop = asyncio.get_running_loop()
            timers = []
            for name in ("call_later", "call_at"):
                real = getattr(loop, name)
                setattr(
                    loop,
                    name,
                    lambda *args, _real=real: timers.append(args) or _real(*args),
                )
            coalescer = QueryCoalescer(service, pool)
            future, _ = coalescer.submit(3, 5)
            assert pool.n_handed == 0
            await asyncio.sleep(0)  # tick 1: the flush creates the burst task
            await asyncio.sleep(0)  # tick 2: the task reaches run_in_executor
            assert pool.n_handed == 1
            result = await asyncio.shield(future)
            await coalescer.aclose()
            assert timers == []
            return result

        with CountingExecutor(max_workers=1) as pool:
            assert run(scenario(pool)).query == 3

    def test_keys_behind_a_running_burst_leave_as_one_burst(
        self, gated_service, executor
    ):
        n_behind = 7

        async def scenario():
            stats = CoalesceStats()
            coalescer = QueryCoalescer(gated_service, executor, stats=stats)
            futures = [coalescer.submit(0, 5)[0]]
            await gated_service.wait_entered()
            futures += [coalescer.submit(q, 5)[0] for q in range(1, 1 + n_behind)]
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            assert stats.n_batches == 1 and coalescer.n_running == 1
            gated_service.release(2)
            results = await asyncio.gather(*map(asyncio.shield, futures))
            await coalescer.aclose()
            return stats, results

        stats, results = run(scenario())
        assert (stats.n_batches, stats.n_executed) == (2, 1 + n_behind)
        assert stats.burst_size_max == n_behind
        assert [len(burst) for burst in gated_service.bursts] == [1, n_behind]
        assert [r.query for r in results] == list(range(1 + n_behind))

    def test_max_batch_drains_a_deep_buffer_in_capped_bursts(
        self, gated_service, executor
    ):
        async def scenario():
            coalescer = QueryCoalescer(gated_service, executor, max_batch=4)
            futures = [coalescer.submit(0, 5)[0]]
            await gated_service.wait_entered()
            futures += [coalescer.submit(q, 5)[0] for q in range(1, 11)]
            gated_service.release(4)
            await asyncio.gather(*map(asyncio.shield, futures))
            await coalescer.aclose()

        run(scenario())
        assert [len(burst) for burst in gated_service.bursts] == [1, 4, 4, 2]

    def test_two_scan_threads_run_two_bursts_and_never_three(self, gated_service):
        async def scenario(pool):
            stats = CoalesceStats()
            coalescer = QueryCoalescer(
                gated_service, pool, scan_threads=2, stats=stats
            )
            futures = [coalescer.submit(0, 5)[0]]
            await gated_service.wait_entered()
            futures.append(coalescer.submit(1, 5)[0])
            await gated_service.wait_entered()  # a second burst, concurrently
            futures += [coalescer.submit(q, 5)[0] for q in (2, 3)]
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            assert coalescer.n_running == 2 and len(gated_service.bursts) == 2
            gated_service.release(3)
            await asyncio.gather(*map(asyncio.shield, futures))
            await coalescer.aclose()
            return stats

        # A third worker would happily run a third burst: only the
        # coalescer's own limit holds it back.
        with ThreadPoolExecutor(max_workers=3) as pool:
            stats = run(scenario(pool))
        assert gated_service.peak_running == 2
        assert [len(burst) for burst in gated_service.bursts] == [1, 1, 2]
        assert stats.n_batches == 3

    def test_failed_burst_still_flushes_what_buffered_behind_it(
        self, gated_service, executor
    ):
        gated_service.fail_bursts.add(0)

        async def scenario():
            stats = CoalesceStats()
            coalescer = QueryCoalescer(gated_service, executor, stats=stats)
            doomed, _ = coalescer.submit(1, 5)
            await gated_service.wait_entered()
            behind, _ = coalescer.submit(2, 5)
            gated_service.release(2)
            with pytest.raises(RuntimeError, match="engine exploded"):
                await asyncio.shield(doomed)
            result = await asyncio.shield(behind)
            await coalescer.aclose()
            return stats, result

        stats, result = run(scenario())
        assert result.query == 2
        assert (stats.n_batches, stats.n_failed_batches, stats.n_executed) == (2, 1, 1)


class TestLoopHits:
    """Only misses leave the loop: hits are answered while nothing scans."""

    def test_cached_key_never_enters_the_executor(self, gated_service, executor):
        gated_service.service.serve([(3, 5)])

        async def scenario():
            stats = CoalesceStats()
            coalescer = QueryCoalescer(gated_service, executor, stats=stats)
            future, coalesced = coalescer.submit(3, 5)
            assert future.done() and not coalesced
            assert coalescer.n_inflight == 0
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            result = await asyncio.shield(future)
            await coalescer.aclose()
            return stats, result

        stats, result = run(scenario())
        assert gated_service.bursts == []
        assert not gated_service.entered.acquire(blocking=False)
        assert (stats.n_loop_hits, stats.n_batches, stats.n_executed) == (1, 0, 0)
        direct = gated_service.service.engine.query(3, 5, update_index=False)
        np.testing.assert_array_equal(result.nodes, direct.nodes)

    def test_cached_key_behind_a_held_burst_waits_for_it(
        self, gated_service, executor
    ):
        gated_service.service.serve([(3, 5)])

        async def scenario():
            stats = CoalesceStats()
            coalescer = QueryCoalescer(gated_service, executor, stats=stats)
            miss, _ = coalescer.submit(1, 5)
            await gated_service.wait_entered()
            # A scan is in flight: the hit waits at the burst boundary.
            hit, _ = coalescer.submit(3, 5)
            await asyncio.sleep(0)
            assert not hit.done() and stats.n_loop_hits == 0
            gated_service.release()
            results = await asyncio.gather(asyncio.shield(miss), asyncio.shield(hit))
            await coalescer.aclose()
            return stats, results

        stats, (miss, hit) = run(scenario())
        assert gated_service.bursts == [[(1, 5)]]  # no second burst
        assert (stats.n_loop_hits, stats.n_batches, stats.n_executed) == (1, 1, 1)
        assert (miss.query, hit.query) == (1, 3)

    def test_boundary_sends_only_the_misses(self, gated_service, executor):
        gated_service.service.serve([(3, 5), (4, 5)])

        async def scenario():
            coalescer = QueryCoalescer(gated_service, executor)
            futures = [coalescer.submit(0, 5)[0]]
            await gated_service.wait_entered()
            futures += [coalescer.submit(q, 5)[0] for q in (3, 1, 4, 2)]
            gated_service.release(2)
            results = await asyncio.gather(*map(asyncio.shield, futures))
            await coalescer.aclose()
            return results

        results = run(scenario())
        assert gated_service.bursts == [[(0, 5)], [(1, 5), (2, 5)]]
        assert [r.query for r in results] == [0, 3, 1, 4, 2]

    def test_traced_hit_records_cache_hit_not_a_batch(
        self, gated_service, executor
    ):
        gated_service.service.serve([(3, 5)])

        async def scenario():
            coalescer = QueryCoalescer(gated_service, executor)
            at_submit = Trace("at_submit")
            with at_submit:
                first, _ = coalescer.submit(3, 5)
            running, _ = coalescer.submit(1, 5)
            await gated_service.wait_entered()
            at_boundary = Trace("at_boundary")
            with at_boundary:
                second, _ = coalescer.submit(3, 5)
            gated_service.release()
            await asyncio.gather(*map(asyncio.shield, (first, running, second)))
            await coalescer.aclose()
            return at_submit, at_boundary

        for trace in run(scenario()):
            assert [span.name for span in trace.root.children] == ["cache.hit"]
            assert trace.root.find("coalesce.batch") is None

    def test_counters_match_a_serve_only_replay(self, small_web_graph, executor):
        stream = [(q, 5) for q in (0, 1, 0, 2, 1, 0, 3, 3, 2, 0, 2)]
        replayed = ReverseTopKService.from_graph(small_web_graph)
        reference = ReverseTopKService.from_graph(small_web_graph)

        async def scenario():
            coalescer = QueryCoalescer(replayed, executor)
            for query, k in stream:  # one connection: one request at a time
                await asyncio.shield(coalescer.submit(query, k)[0])
            await coalescer.aclose()
            return coalescer.stats

        try:
            stats = run(scenario())
            for request in stream:
                reference.serve([request])
            ours, theirs = replayed.metrics(), reference.metrics()
        finally:
            replayed.close()
            reference.close()
        for name in ("n_requests", "n_cache_hits", "n_engine_queries"):
            assert getattr(ours, name) == getattr(theirs, name)
        assert ours.cache == theirs.cache
        assert stats.n_loop_hits == theirs.n_cache_hits > 0
        assert stats.n_batches == theirs.n_engine_queries
