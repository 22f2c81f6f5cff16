"""Rollover tests: cloning, atomic swap, draining, and version integrity."""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
import gc
import weakref

import numpy as np
import pytest

from repro.dynamic import DynamicReverseTopKService, GraphUpdate
from repro.exceptions import ServiceClosedError
from repro.graph import copying_web_graph
from repro.net.coalesce import QueryCoalescer
from repro.net.rollover import (
    RolloverManager,
    ServiceGeneration,
    clone_for_rollover,
)


@pytest.fixture()
def dynamic_service(small_web_graph):
    service = DynamicReverseTopKService.from_graph(small_web_graph)
    yield service
    if not service.closed:
        service.close()


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


class TestClone:
    def test_clone_answers_identically_and_independently(self, dynamic_service):
        clone = clone_for_rollover(dynamic_service)
        try:
            original = dynamic_service.engine.query(3, 5, update_index=False)
            cloned = clone.engine.query(3, 5, update_index=False)
            np.testing.assert_array_equal(cloned.nodes, original.nodes)
            np.testing.assert_array_equal(
                cloned.proximities_to_query, original.proximities_to_query
            )
            # Mutating the clone must not leak into the original.
            (edge,) = absent_edges(dynamic_service.graph, 1)
            clone.apply_updates([GraphUpdate.add(*edge)])
            assert clone.engine.index.version == 1
            assert dynamic_service.engine.index.version == 0
        finally:
            clone.close()

    def test_clone_keeps_the_pinned_hubs_under_hub_churn(self, dynamic_service):
        # Wiring one node to many others moves the degree ranking; the
        # clone's maintainer keeps the original's hubs and the original
        # keeps its graph.
        hubs = dynamic_service.engine.index.hubs.nodes
        clone = clone_for_rollover(dynamic_service)
        try:
            assert clone.engine.index.hubs.nodes == hubs
            graph = dynamic_service.graph
            present = {(u, v) for u, v, _ in graph.edges()}
            target = graph.n_nodes - 1
            added = [
                GraphUpdate.add(target, v)
                for v in range(graph.n_nodes)
                if v != target and (target, v) not in present
            ]
            assert len(added) > 10
            clone.apply_updates(added)
            assert clone.engine.index.hubs.nodes == hubs
            assert clone.engine.index.version == 1
            assert dynamic_service.engine.index.hubs.nodes == hubs
            assert dynamic_service.graph.n_edges == graph.n_edges
        finally:
            clone.close()

    def test_clone_shares_the_service_graph(self, dynamic_service):
        # A DiGraph is immutable: the clone holds the very object, and its
        # own batch replaces its graph without touching the original's.
        graph = dynamic_service.graph
        clone = clone_for_rollover(dynamic_service)
        try:
            assert clone.graph is graph
            (edge,) = absent_edges(graph, 1)
            clone.apply_updates([GraphUpdate.add(*edge)])
            assert clone.graph.has_edge(*edge)
            assert dynamic_service.graph is graph and not graph.has_edge(*edge)
        finally:
            clone.close()

    def test_clone_of_closed_service_fails(self, dynamic_service):
        dynamic_service.close()
        with pytest.raises(ServiceClosedError):
            clone_for_rollover(dynamic_service)


def make_manager(service, executor):
    def make_coalescer(generation_service):
        return QueryCoalescer(generation_service, executor)

    return RolloverManager(
        service,
        make_coalescer=make_coalescer,
        maintenance_executor=executor,
    )


class TestRolloverManager:
    def test_swap_advances_generation_and_version(self, dynamic_service):
        async def scenario():
            with ThreadPoolExecutor(max_workers=2) as executor:
                manager = make_manager(dynamic_service, executor)
                first = manager.current
                assert (first.generation_id, first.index_version) == (0, 0)
                edges = absent_edges(dynamic_service.graph, 2)
                report = await manager.apply_updates(
                    [GraphUpdate.add(*edges[0])]
                )
                assert report.changed
                second = manager.current
                assert second is not first
                assert second.generation_id == 1
                assert second.index_version == 1
                assert manager.n_rollovers == 1
                await manager.aclose()

        asyncio.run(scenario())

    def test_noop_batch_keeps_warm_generation(self, dynamic_service):
        async def scenario():
            with ThreadPoolExecutor(max_workers=2) as executor:
                manager = make_manager(dynamic_service, executor)
                before = manager.current
                u, v, _ = next(iter(dynamic_service.graph.edges()))
                report = await manager.apply_updates(
                    [GraphUpdate.set_weight(u, v, 2.0)]
                )
                assert not report.changed
                assert manager.current is before  # warm cache preserved
                assert manager.n_noop_batches == 1
                await manager.aclose()

        asyncio.run(scenario())

    def test_old_generation_drains_before_close(self, dynamic_service):
        """A pinned generation survives the swap until its pin releases."""

        async def scenario():
            with ThreadPoolExecutor(max_workers=2) as executor:
                manager = make_manager(dynamic_service, executor)
                old = manager.current
                old.pin()
                edge = absent_edges(dynamic_service.graph, 1)[0]
                rollover = asyncio.ensure_future(
                    manager.apply_updates([GraphUpdate.add(*edge)])
                )
                # The swap happens, but retirement blocks on our pin: the
                # old service must still answer.
                while manager.current is old:
                    await asyncio.sleep(0.005)
                assert not old.service.closed
                result = old.service.query(3, 5)
                assert result.query == 3
                old.unpin()
                await rollover
                assert old.service.closed
                await manager.aclose()

        asyncio.run(scenario())

    def test_failed_batch_keeps_old_generation_serving(self, dynamic_service):
        async def scenario():
            with ThreadPoolExecutor(max_workers=2) as executor:
                manager = make_manager(dynamic_service, executor)
                before = manager.current
                u, v, _ = next(iter(dynamic_service.graph.edges()))
                with pytest.raises(Exception):
                    # Adding an existing edge fails batch validation.
                    await manager.apply_updates([GraphUpdate.add(u, v)])
                assert manager.current is before
                assert not before.service.closed
                assert before.service.query(3, 5).query == 3
                await manager.aclose()

        asyncio.run(scenario())

    def test_retire_runs_service_close_off_the_event_loop(self, dynamic_service):
        """Regression: a slow ``service.close`` must not stall the loop.

        ``close`` takes the index write lock and joins worker pools; calling
        it inline in the retire coroutine froze every other connection for
        the duration of the teardown.  It now runs on the executor, so the
        loop keeps turning while close blocks.
        """
        import threading

        async def scenario():
            with ThreadPoolExecutor(max_workers=2) as executor:
                coalescer = QueryCoalescer(dynamic_service, executor)
                generation = ServiceGeneration(0, dynamic_service, coalescer)
                started = threading.Event()
                release = threading.Event()
                real_close = dynamic_service.close

                def slow_close():
                    started.set()
                    assert release.wait(5.0), "test never released close()"
                    real_close()

                dynamic_service.close = slow_close  # instance-attr shadow
                loop = asyncio.get_running_loop()
                try:
                    retirement = asyncio.ensure_future(
                        generation.retire(executor=executor)
                    )
                    await loop.run_in_executor(None, started.wait, 5.0)
                    assert started.is_set()
                    # close() is parked on `release` in the executor; if it
                    # ran on the loop thread we could not get scheduled here
                    # until retirement finished.
                    await asyncio.sleep(0.05)
                    assert not retirement.done()
                finally:
                    release.set()
                await asyncio.wait_for(retirement, timeout=5.0)
                assert dynamic_service.closed

        asyncio.run(scenario())

    def test_closed_manager_rejects_everything(self, dynamic_service):
        async def scenario():
            with ThreadPoolExecutor(max_workers=2) as executor:
                manager = make_manager(dynamic_service, executor)
                await manager.aclose()
                await manager.aclose()  # idempotent
                with pytest.raises(ServiceClosedError):
                    manager.current
                with pytest.raises(ServiceClosedError):
                    await manager.apply_updates([])
                snapshot = manager.snapshot()
                assert snapshot["current"] is None
                assert len(snapshot["retired"]) == 1

        asyncio.run(scenario())


class TestRolloverFootprint:
    """Regression: a generation inherits its parent's answers, not its objects.

    The clone pickled the parent's overlay of written states and then added
    its own batch's, so every rollover made the served index heavier.
    ``ColumnarStateStore.__getstate__`` ships merged flat arrays and an empty
    overlay — for the monolithic index's store and, since a shard owns a
    store too, for every shard of a sharded deployment.
    """

    N_BATCHES = 30

    @staticmethod
    def overlays(index):
        return [shard.store.overlay for shard in index.shards]

    @staticmethod
    def roll(graph, on_generation, mirror=None, **deployment):
        """Apply ``N_BATCHES`` one-edge batches through a ``RolloverManager``.

        ``on_generation(service, report)`` observes each fresh generation;
        ``mirror`` (optional) gets the same batches applied in place.
        """
        rng = np.random.default_rng(0)
        present = {(u, v) for u, v, _ in graph.edges()}

        async def scenario():
            service = DynamicReverseTopKService.from_graph(graph, **deployment)
            with ThreadPoolExecutor(max_workers=2) as executor:
                manager = make_manager(service, executor)
                del service  # the manager owns every generation from here on
                for _ in range(TestRolloverFootprint.N_BATCHES):
                    while True:
                        u, v = (int(x) for x in rng.integers(0, graph.n_nodes, 2))
                        if u != v and (u, v) not in present:
                            break
                    present.add((u, v))
                    batch = [GraphUpdate.add(u, v)]
                    retired = weakref.ref(manager.current.service)
                    report = await manager.apply_updates(batch)
                    assert report.changed and not report.full_rebuild
                    # The maintenance thread that closed the retired
                    # generation may still be unwinding the frame holding it.
                    for _ in range(500):
                        gc.collect()
                        if retired() is None:
                            break
                        await asyncio.sleep(0.01)
                    assert retired() is None, "the retired generation is still held"
                    if mirror is not None:
                        mirrored = mirror.apply_updates(batch)
                        assert mirrored.n_invalidated == report.n_invalidated
                    on_generation(manager.current.service, report)
                await manager.aclose()

        asyncio.run(scenario())

    @pytest.fixture(scope="class")
    def graph(self):
        return copying_web_graph(400, out_degree=5, seed=5)

    @pytest.mark.parametrize("deployment", ["monolithic", "ram_shards", "memmap_shards"])
    def test_fresh_generation_carries_only_its_own_batch(
        self, graph, deployment, tmp_path
    ):
        # Memmap shards: a shard a batch leaves unwritten is pickled clean but
        # heap-backed from the second generation on — its merged rows must
        # keep shipping, not fall back to the layout's stale files.
        def options(name):
            return {
                "monolithic": {},
                "ram_shards": {"n_shards": 3},
                "memmap_shards": {
                    "n_shards": 3, "memory_budget": 0, "snapshot_dir": tmp_path / name
                },
            }[deployment]

        mirror = DynamicReverseTopKService.from_graph(graph, **options("mirror"))
        probes = [(q, k) for q in range(0, graph.n_nodes, 57) for k in (3, 10)]

        def check(service, report):
            index = service.engine.index
            # Exactly the rows the batch rewrote: hub rows only for hubs that
            # were actually re-solved, never one per hub per batch.
            written = (
                report.n_hub_columns + report.n_invalidated + report.n_rematerialized
            )
            assert sum(len(overlay) for overlay in self.overlays(index)) == written
            reused.append(report.n_hub_columns == 0)
            assert index.total_bytes() == mirror.engine.index.total_bytes()
            for q, k in probes:
                rolled = service.engine.query(q, k, update_index=False)
                direct = mirror.engine.query(q, k, update_index=False)
                np.testing.assert_array_equal(rolled.nodes, direct.nodes)
                np.testing.assert_array_equal(
                    rolled.proximities_to_query, direct.proximities_to_query
                )

        reused = []
        try:
            self.roll(graph, check, mirror=mirror, **options("rolled"))
        finally:
            mirror.close()
        # Most one-edge batches here touch a source no hub reaches.
        assert sum(reused) > self.N_BATCHES // 2

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_object_count_is_flat_across_rollovers(self, graph, n_shards):
        baselines = []

        def measure(service, report):
            gc.collect()
            # The live generation's own overlay is the one term that
            # legitimately varies with the batch — per written state: the
            # StateArrays, its field dict and its three (keys, values)
            # tuples; everything else must not accumulate.
            overlay = sum(
                gc.is_tracked(obj)
                for written in self.overlays(service.engine.index)
                for state in written.values()
                for obj in (
                    state, vars(state), state.residual, state.retained, state.hub_ink
                )
            )
            baselines.append(len(gc.get_objects()) - overlay)

        self.roll(graph, measure, n_shards=n_shards)
        assert max(baselines[3:]) <= max(baselines[:3]) + 50, baselines
