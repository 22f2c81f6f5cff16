"""Serving-layer integration tests for partitioned, out-of-core indexes.

Covers the wiring around :mod:`repro.core.sharding`: warm-start through the
snapshot layout, the static and dynamic service façades over a several-shard
engine, the thread-parallel executor, and a fresh-process smoke test that loads a
memmap-backed layout the way a cold serving replica would.
"""

from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

from repro.core import (
    IndexParams,
    ReverseTopKEngine,
    ReverseTopKIndex,
    build_index,
)
from repro.dynamic import DynamicReverseTopKService, GraphUpdate
from repro.graph import copying_web_graph, transition_matrix
from repro.serving import ReverseTopKService, ServiceConfig, SnapshotManager


@pytest.fixture(scope="module")
def sharded_setup():
    graph = copying_web_graph(140, out_degree=4, seed=23)
    matrix = transition_matrix(graph)
    params = IndexParams(capacity=12, hub_budget=4)
    index = build_index(graph, params, transition=matrix)
    reference = ReverseTopKEngine(matrix, index)
    return graph, matrix, params, reference


REQUESTS = [(5, 6), (88, 6), (5, 6), (139, 3), (42, 6)]


class TestShardedSnapshots:
    def test_build_or_load_memmap_round_trip(self, sharded_setup, tmp_path):
        graph, matrix, params, reference = sharded_setup
        manager = SnapshotManager(tmp_path)
        index, hit = manager.build_or_load(
            graph, params, transition=matrix, n_shards=4, memory_budget=0
        )
        assert not hit
        assert all(shard.backing == "memmap" for shard in index.shards)
        again, hit = manager.build_or_load(
            graph, params, transition=matrix, n_shards=4, memory_budget=0
        )
        assert hit
        for a, b in zip(index.shards, again.shards):
            np.testing.assert_array_equal(
                np.asarray(a.columns.lower), np.asarray(b.columns.lower)
            )

    def test_ram_build_archives_layout_for_next_start(self, sharded_setup, tmp_path):
        graph, matrix, params, _ = sharded_setup
        manager = SnapshotManager(tmp_path)
        _, hit = manager.build_or_load(
            graph, params, transition=matrix, n_shards=3
        )
        assert not hit
        _, hit = manager.build_or_load(
            graph, params, transition=matrix, n_shards=3
        )
        assert hit

    def test_different_shard_counts_coexist(self, sharded_setup, tmp_path):
        graph, matrix, params, _ = sharded_setup
        manager = SnapshotManager(tmp_path)
        manager.build_or_load(graph, params, transition=matrix, n_shards=2)
        _, hit = manager.build_or_load(
            graph, params, transition=matrix, n_shards=5
        )
        assert not hit  # a different partitioning is a different layout

    def test_store_writes_the_layout(self, sharded_setup, tmp_path):
        graph, matrix, params, _ = sharded_setup
        manager = SnapshotManager(tmp_path)
        index, _ = manager.build_or_load(
            graph, params, transition=matrix, n_shards=3
        )
        path = manager.store(index, graph, transition=matrix)
        assert path.is_dir()
        loaded = ReverseTopKIndex.load(path, memory_budget=0)
        assert loaded.n_shards == 3


class TestShardedStaticService:
    def test_answers_match_direct_engine(self, sharded_setup, tmp_path):
        graph, matrix, params, reference = sharded_setup
        config = ServiceConfig(cache_capacity=32, max_batch_size=2, n_workers=2)
        with ReverseTopKService.from_graph(
            graph,
            params,
            snapshot_dir=tmp_path,
            transition=matrix,
            n_shards=4,
            memory_budget=0,
            scan_workers=2,
            config=config,
        ) as service:
            served = service.serve(REQUESTS)
            for (query, k), result in zip(REQUESTS, served):
                direct = reference.query(query, k, update_index=False)
                np.testing.assert_array_equal(result.nodes, direct.nodes)
            service.engine.close()

    def test_close_releases_the_engine_scan_pool(self, sharded_setup):
        graph, matrix, params, _ = sharded_setup
        service = ReverseTopKService.from_graph(
            graph, params, transition=matrix, n_shards=3, scan_workers=2
        )
        service.serve(REQUESTS)
        assert service.engine._scan_pool is not None
        service.close()
        assert service.engine._scan_pool is None

    def test_memory_budget_without_snapshot_dir_raises(self, sharded_setup):
        graph, matrix, params, _ = sharded_setup
        with pytest.raises(ValueError):
            ReverseTopKService.from_graph(
                graph,
                params,
                transition=matrix,
                n_shards=4,
                memory_budget=0,  # memmap needed but nowhere to put the layout
            )

    def test_default_is_one_in_ram_shard(self, sharded_setup, tmp_path):
        graph, matrix, params, _ = sharded_setup
        with ReverseTopKService.from_graph(
            graph, params, transition=matrix, snapshot_dir=tmp_path
        ) as service:
            (shard,) = service.engine.index.shards
            assert shard.backing == "ram"
        assert [path.name for path in tmp_path.iterdir()][0].endswith("-s1")

    def test_memory_budget_applies_at_one_shard(self, sharded_setup, tmp_path):
        # The budget needs no shard count: the default single shard goes out
        # of core like any other, and answers like the in-RAM engine.
        graph, matrix, params, reference = sharded_setup
        with ReverseTopKService.from_graph(
            graph, params, transition=matrix, snapshot_dir=tmp_path, memory_budget=0
        ) as service:
            (shard,) = service.engine.index.shards
            assert shard.backing == "memmap"
            for (query, k), result in zip(REQUESTS, service.serve(REQUESTS)):
                direct = reference.query(query, k, update_index=False)
                np.testing.assert_array_equal(result.nodes, direct.nodes)

    def test_warm_start_from_sharded_layout(self, sharded_setup, tmp_path):
        graph, matrix, params, _ = sharded_setup
        cold = ReverseTopKService.from_graph(
            graph, params, snapshot_dir=tmp_path, transition=matrix, n_shards=3
        )
        assert not cold.warm_started
        cold.close()
        warm = ReverseTopKService.from_graph(
            graph, params, snapshot_dir=tmp_path, transition=matrix, n_shards=3
        )
        assert warm.warm_started
        warm.close()

    def test_refine_purges_stranded_generation(self, sharded_setup, tmp_path):
        graph, matrix, params, _ = sharded_setup
        with ReverseTopKService.from_graph(
            graph,
            params,
            snapshot_dir=tmp_path,
            transition=matrix,
            n_shards=3,
            config=ServiceConfig(cache_capacity=32),
        ) as service:
            service.serve(REQUESTS)
            cached_before = service._cache.stats().size
            assert cached_before > 0
            # Force a write-back so the version actually bumps, then refine
            # (which purges under the post-bump version).
            service.engine.index.set_state(0, service.engine.index.state(0))
            service.refine(5, 6)
            stats = service._cache.stats()
            assert stats.purged >= cached_before


class TestConcurrentLazyOpen:
    def test_many_threads_share_one_cold_memmap_engine(self, sharded_setup, tmp_path):
        # Regression for the lazy-open publish order: concurrent first-touch
        # scans of the same cold shard must never observe a half-initialised
        # columnar view.
        import threading

        graph, matrix, params, reference = sharded_setup
        manager = SnapshotManager(tmp_path)
        manager.build_or_load(
            graph, params, transition=matrix, n_shards=6, memory_budget=0
        )
        expected = {
            query: reference.query(query, 5, update_index=False).nodes
            for query in range(0, 140, 17)
        }
        for _ in range(3):
            cold, _ = manager.build_or_load(
                graph, params, transition=matrix, n_shards=6, memory_budget=0
            )
            engine = ReverseTopKEngine(matrix, cold, scan_workers=4)
            errors = []

            def worker(query):
                try:
                    result = engine.query_many_readonly([query], 5)[0]
                    np.testing.assert_array_equal(result.nodes, expected[query])
                except Exception as exc:  # noqa: BLE001 - collected for assert
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(query,)) for query in expected
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            engine.close()
            assert not errors, errors


class TestShardedDynamicService:
    def test_updates_purge_cache_and_match_fresh_build(self, sharded_setup, tmp_path):
        graph, _, params, _ = sharded_setup
        with DynamicReverseTopKService.from_graph(
            graph,
            params,
            snapshot_dir=tmp_path,
            n_shards=3,
            config=ServiceConfig(cache_capacity=32),
        ) as service:
            service.serve(REQUESTS)
            stranded = service._cache.stats().size
            assert stranded > 0
            report = service.apply_updates(
                [GraphUpdate.add(3, 77), GraphUpdate.add(10, 120)]
            )
            assert report.changed
            stats = service._cache.stats()
            assert stats.purged == stranded  # whole dead generation dropped
            new_graph = service.graph.materialize()
            fresh = ReverseTopKEngine.build(new_graph, params)
            for query, k in REQUESTS:
                a = service.query(query, k)
                b = fresh.query(query, k, update_index=False)
                np.testing.assert_array_equal(a.nodes, b.nodes)

    def test_post_update_layout_warm_starts(self, sharded_setup, tmp_path):
        graph, _, params, _ = sharded_setup
        with DynamicReverseTopKService.from_graph(
            graph, params, snapshot_dir=tmp_path, n_shards=3
        ) as service:
            service.apply_updates([GraphUpdate.add(7, 99)])
            new_graph = service.graph.materialize()
        warm = DynamicReverseTopKService.from_graph(
            new_graph, params, snapshot_dir=tmp_path, n_shards=3
        )
        assert warm.warm_started
        warm.close()


class TestFreshProcessSmoke:
    def test_memmap_layout_loads_in_fresh_process(self, sharded_setup, tmp_path):
        """A cold replica must be able to serve from the layout alone."""
        graph, matrix, params, reference = sharded_setup
        manager = SnapshotManager(tmp_path)
        index, _ = manager.build_or_load(
            graph, params, transition=matrix, n_shards=4, memory_budget=0
        )
        layout = index.directory
        assert layout is not None
        expected = reference.query(11, 5, update_index=False)
        script = f"""
import numpy as np
from repro.core import ReverseTopKEngine, ReverseTopKIndex
from repro.graph import copying_web_graph, transition_matrix

graph = copying_web_graph(140, out_degree=4, seed=23)
matrix = transition_matrix(graph)
index = ReverseTopKIndex.load({str(layout)!r}, memory_budget=0)
assert all(shard.backing == "memmap" for shard in index.shards)
engine = ReverseTopKEngine(matrix, index)
result = engine.query(11, 5, update_index=False)
print("NODES:" + ",".join(str(int(n)) for n in result.nodes))
"""
        src = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin:/usr/local/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        line = [l for l in proc.stdout.splitlines() if l.startswith("NODES:")][0]
        nodes = [int(x) for x in line[len("NODES:"):].split(",") if x]
        np.testing.assert_array_equal(np.asarray(nodes), expected.nodes)
