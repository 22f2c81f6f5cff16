"""Tests for content-addressed warm-start snapshots."""

import numpy as np

from repro.core import IndexParams, ReverseTopKEngine, build_index
from repro.graph import DiGraph, ring_graph
from repro.serving import (
    SnapshotManager,
    graph_fingerprint,
    params_fingerprint,
    snapshot_key,
)


class TestFingerprints:
    def test_graph_fingerprint_deterministic(self, small_web_graph):
        assert graph_fingerprint(small_web_graph) == graph_fingerprint(small_web_graph)

    def test_graph_fingerprint_distinguishes_graphs(self):
        assert graph_fingerprint(ring_graph(8)) != graph_fingerprint(ring_graph(9))

    def test_graph_fingerprint_sees_labels(self):
        plain = ring_graph(4)
        labelled = DiGraph(plain.adjacency, [f"n{i}" for i in range(4)])
        assert graph_fingerprint(plain) != graph_fingerprint(labelled)

    def test_params_fingerprint_sensitive_to_every_field(self):
        base = IndexParams(capacity=10, hub_budget=2)
        assert params_fingerprint(base) == params_fingerprint(
            IndexParams(capacity=10, hub_budget=2)
        )
        assert params_fingerprint(base) != params_fingerprint(
            IndexParams(capacity=11, hub_budget=2)
        )
        assert params_fingerprint(base) != params_fingerprint(
            IndexParams(capacity=10, hub_budget=3)
        )
        # No field is exempt: every parameter of IndexParams changes contents.
        from dataclasses import fields, replace

        for spec in fields(IndexParams):
            value = getattr(base, spec.name)
            bumped = replace(base, **{spec.name: value * 2 if value else 1})
            assert params_fingerprint(bumped) != params_fingerprint(base), spec.name

    def test_transition_fingerprint_does_not_mutate_input(self):
        import scipy.sparse as sp

        from repro.serving.snapshot import transition_fingerprint

        # Duplicate, unsorted entries: canonicalisation must work on a copy.
        matrix = sp.csr_matrix(
            (
                np.array([1.0, 2.0, 3.0]),
                (np.array([0, 0, 1]), np.array([1, 1, 0])),
            ),
            shape=(2, 2),
        )
        data_before = matrix.data.copy()
        indptr_before = matrix.indptr.copy()
        transition_fingerprint(matrix)
        np.testing.assert_array_equal(matrix.data, data_before)
        np.testing.assert_array_equal(matrix.indptr, indptr_before)

    def test_snapshot_key_combines_both(self, small_web_graph):
        a = snapshot_key(small_web_graph, IndexParams(capacity=10, hub_budget=2))
        b = snapshot_key(small_web_graph, IndexParams(capacity=12, hub_budget=2))
        assert a != b

    def test_snapshot_key_sees_transition(self, small_web_graph, small_transition):
        params = IndexParams(capacity=10, hub_budget=2)
        default = snapshot_key(small_web_graph, params)
        explicit = snapshot_key(small_web_graph, params, small_transition)
        reweighted = snapshot_key(small_web_graph, params, small_transition * 0.5)
        assert default != explicit  # explicit matrix never collides with marker
        assert explicit != reweighted
        assert explicit == snapshot_key(small_web_graph, params, small_transition)

    def test_different_transition_is_a_miss(
        self, tmp_path, small_web_graph, small_transition, small_params
    ):
        # An index built for one transition must never warm-start an engine
        # paired with a different one.
        manager = SnapshotManager(tmp_path)
        manager.build_or_load(
            small_web_graph, small_params, transition=small_transition
        )
        other = (small_transition * 0.5).tocsc()
        _, hit = manager.build_or_load(small_web_graph, small_params, transition=other)
        assert not hit


def _meta_path(manager, graph, params, transition):
    directory = manager.sharded_path_for(
        graph, params.for_graph(graph.n_nodes), transition, n_shards=1
    )
    return directory / "sharded-meta.npz"


class TestSnapshotManager:
    def test_old_npz_snapshot_is_a_miss_once(
        self, tmp_path, small_web_graph, small_transition, small_params
    ):
        # Snapshots from before the layout became the only format were
        # single ``lbi-<key>.npz`` archives: they are never read, the first
        # start rebuilds once and archives the layout next to them.
        key = snapshot_key(
            small_web_graph,
            small_params.for_graph(small_web_graph.n_nodes),
            small_transition,
        )
        (tmp_path / f"lbi-{key}.npz").write_bytes(b"an archive of the old format")
        manager = SnapshotManager(tmp_path)
        _, hit = manager.build_or_load(
            small_web_graph, small_params, transition=small_transition
        )
        assert not hit
        _, hit = manager.build_or_load(
            small_web_graph, small_params, transition=small_transition
        )
        assert hit


    def test_miss_then_hit(self, tmp_path, small_web_graph, small_transition, small_params):
        manager = SnapshotManager(tmp_path / "snaps")
        index, from_snapshot = manager.build_or_load(
            small_web_graph, small_params, transition=small_transition
        )
        assert not from_snapshot
        reloaded, second = manager.build_or_load(
            small_web_graph, small_params, transition=small_transition
        )
        assert second
        np.testing.assert_allclose(
            reloaded.columns.lower, index.columns.lower
        )

    def test_loaded_index_answers_like_fresh_build(
        self, tmp_path, small_web_graph, small_transition, small_params
    ):
        manager = SnapshotManager(tmp_path)
        fresh = build_index(small_web_graph, small_params, transition=small_transition)
        manager.store(fresh, small_web_graph, transition=small_transition)
        loaded, hit = manager.build_or_load(
            small_web_graph, small_params, transition=small_transition
        )
        assert hit
        expected = ReverseTopKEngine(small_transition, fresh).query(
            3, 5, update_index=False
        )
        actual = ReverseTopKEngine(small_transition, loaded).query(
            3, 5, update_index=False
        )
        np.testing.assert_array_equal(actual.nodes, expected.nodes)

    def test_different_params_different_archives(
        self, tmp_path, small_web_graph, small_transition
    ):
        manager = SnapshotManager(tmp_path)
        a = IndexParams(capacity=8, hub_budget=2)
        b = IndexParams(capacity=12, hub_budget=2)
        manager.build_or_load(small_web_graph, a, transition=small_transition)
        _, hit = manager.build_or_load(small_web_graph, b, transition=small_transition)
        assert not hit
        assert len(list(manager.directory.glob("lbi-*"))) == 2

    def test_corrupted_meta_is_a_miss(
        self, tmp_path, small_web_graph, small_transition, small_params
    ):
        manager = SnapshotManager(tmp_path)
        index, _ = manager.build_or_load(
            small_web_graph, small_params, transition=small_transition
        )
        path = _meta_path(manager, small_web_graph, small_params, small_transition)
        path.write_bytes(b"not an npz archive")
        rebuilt, hit = manager.build_or_load(
            small_web_graph, small_params, transition=small_transition
        )
        assert not hit
        assert rebuilt.n_nodes == index.n_nodes
        # The rebuild re-archived a valid layout over the corrupted one.
        _, hit_again = manager.build_or_load(
            small_web_graph, small_params, transition=small_transition
        )
        assert hit_again

    def test_layout_missing_a_shard_file_is_a_miss(
        self, tmp_path, small_web_graph, small_transition, small_params
    ):
        manager = SnapshotManager(tmp_path)
        index, _ = manager.build_or_load(
            small_web_graph, small_params, transition=small_transition
        )
        layout = _meta_path(manager, small_web_graph, small_params, small_transition).parent
        (layout / "shard-00000.states.retained_keys.npy").unlink()
        rebuilt, hit = manager.build_or_load(
            small_web_graph, small_params, transition=small_transition
        )
        assert not hit
        assert rebuilt.n_nodes == index.n_nodes
        _, hit = manager.build_or_load(
            small_web_graph, small_params, transition=small_transition
        )
        assert hit  # the rebuild re-archived a whole layout

    def test_rebuild_over_an_old_layout_removes_its_files(
        self, tmp_path, small_web_graph, small_transition, small_params
    ):
        # Layout version 1 kept a float32 screening plane and a second copy
        # of P̂ per shard; version 2 writes neither.
        manager = SnapshotManager(tmp_path)
        manager.build_or_load(small_web_graph, small_params, transition=small_transition)
        meta = _meta_path(manager, small_web_graph, small_params, small_transition)
        layout = meta.parent
        current = sorted(path.name for path in layout.iterdir())
        with np.load(meta) as data:
            old = {name: data[name] for name in data.files}
        old["layout_version"] = np.array([1], dtype=np.int64)
        with open(meta, "wb") as handle:
            np.savez_compressed(handle, **old)
        stale = ["shard-00000.lower32.npy", "shard-00000.states.lower_bounds.npy"]
        for name in stale:
            np.save(layout / name, np.zeros(3))
        in_flight = layout / "shard-00000.mass.npy.tmp-abc123"
        in_flight.write_bytes(b"another writer's temp file")
        rebuilt, hit = manager.build_or_load(
            small_web_graph, small_params, transition=small_transition
        )
        assert not hit
        assert sorted(path.name for path in layout.iterdir()) == sorted(
            current + [in_flight.name]
        )
        loaded, hit = manager.build_or_load(
            small_web_graph, small_params, transition=small_transition
        )
        assert hit
        np.testing.assert_array_equal(loaded.columns.lower, rebuilt.columns.lower)

    def test_truncated_meta_is_a_miss(
        self, tmp_path, small_web_graph, small_transition, small_params
    ):
        manager = SnapshotManager(tmp_path)
        index, _ = manager.build_or_load(
            small_web_graph, small_params, transition=small_transition
        )
        path = _meta_path(manager, small_web_graph, small_params, small_transition)
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])  # torn but zip-magic-led
        rebuilt, hit = manager.build_or_load(
            small_web_graph, small_params, transition=small_transition
        )
        assert not hit
        assert rebuilt.n_nodes == index.n_nodes

    def test_store_on_miss_false_leaves_no_layout(
        self, tmp_path, small_web_graph, small_transition, small_params
    ):
        manager = SnapshotManager(tmp_path)
        manager.build_or_load(
            small_web_graph,
            small_params,
            transition=small_transition,
            store_on_miss=False,
        )
        assert not list(manager.directory.iterdir())

    def test_key_uses_effective_params(self, tmp_path, small_transition, small_web_graph):
        # Defaults get clamped by for_graph; the snapshot must be found again
        # whether the caller passes the raw or the clamped parameters.
        manager = SnapshotManager(tmp_path)
        raw = IndexParams()  # capacity 200 clamps to n_nodes
        manager.build_or_load(small_web_graph, raw, transition=small_transition)
        _, hit = manager.build_or_load(
            small_web_graph,
            raw.for_graph(small_web_graph.n_nodes),
            transition=small_transition,
        )
        assert hit


class TestParallelBuildOrLoad:
    def test_miss_builds_in_parallel_and_archives(
        self, tmp_path, small_web_graph, small_transition, small_params
    ):
        manager = SnapshotManager(tmp_path)
        index, hit = manager.build_or_load(
            small_web_graph, small_params, transition=small_transition, parallel=2
        )
        assert not hit
        assert index.n_nodes == small_web_graph.n_nodes
        # The parallel cold path archives under the same content key a
        # serial build would use, so the next start is a warm hit either way.
        _, hit_serial = manager.build_or_load(
            small_web_graph, small_params, transition=small_transition
        )
        assert hit_serial
        _, hit_parallel = manager.build_or_load(
            small_web_graph, small_params, transition=small_transition, parallel=2
        )
        assert hit_parallel

    def test_parallel_build_bit_identical_to_serial_archive(
        self, tmp_path, small_web_graph, small_transition, small_params
    ):
        manager = SnapshotManager(tmp_path / "parallel")
        parallel, _ = manager.build_or_load(
            small_web_graph, small_params, transition=small_transition, parallel=2
        )
        serial = build_index(small_web_graph, small_params, transition=small_transition)
        for (node, a), (_, b) in zip(parallel.states(), serial.states()):
            assert a.residual == b.residual, node
            assert a.retained == b.retained, node
            assert a.hub_ink == b.hub_ink, node
            np.testing.assert_array_equal(a.lower_bounds, b.lower_bounds)
        np.testing.assert_array_equal(
            parallel.columns.lower, serial.columns.lower
        )

    def test_parallel_none_builds_in_process(
        self, tmp_path, small_web_graph, small_transition, small_params
    ):
        manager = SnapshotManager(tmp_path)
        index, hit = manager.build_or_load(
            small_web_graph, small_params, transition=small_transition
        )
        assert not hit
        reference, hit = manager.build_or_load(
            small_web_graph, small_params, transition=small_transition
        )
        assert hit
        assert reference.n_nodes == index.n_nodes

    def test_parallel_answers_queries(self, tmp_path, small_web_graph, small_transition, small_params):
        manager = SnapshotManager(tmp_path)
        index, _ = manager.build_or_load(
            small_web_graph, small_params, transition=small_transition, parallel=2
        )
        engine = ReverseTopKEngine(small_transition, index)
        serial_engine = ReverseTopKEngine(
            small_transition,
            build_index(small_web_graph, small_params, transition=small_transition),
        )
        for query in (0, 13, 31):
            a = engine.query(query, 5, update_index=False)
            b = serial_engine.query(query, 5, update_index=False)
            np.testing.assert_array_equal(a.nodes, b.nodes)
