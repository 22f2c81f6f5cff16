"""Atomic layout writes and pickling of the index and the engine."""

import copy
import pickle

import numpy as np
import pytest

from repro.core import ReverseTopKEngine, ReverseTopKIndex
from repro.core import index as index_module, sharding as sharding_module
from repro.core.statestore import STATE_ARRAY_NAMES, ColumnarStateStore
from repro.exceptions import SerializationError


def _layout_files(directory):
    return sorted(path.name for path in directory.iterdir())


class TestAtomicPersist:
    def test_layout_file_set_is_pinned(self, small_index, tmp_path):
        small_index.persist(tmp_path / "layout")
        stem = "shard-00000"
        expected = {f"{stem}.{suffix}.npy" for suffix in ("lower", "lower32", "mass", "exact")}
        expected |= {f"{stem}.states.{name}.npy" for name in STATE_ARRAY_NAMES}
        expected.add(sharding_module._META_NAME)
        assert set(_layout_files(tmp_path / "layout")) == expected

    def test_failed_write_preserves_existing_snapshot(
        self, small_index, tmp_path, monkeypatch
    ):
        directory = tmp_path / "layout"
        small_index.persist(directory)
        good = {name: (directory / name).read_bytes() for name in _layout_files(directory)}

        def torn_write(handle, **arrays):
            handle.write(b"torn partial garbage")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", torn_write)
        with pytest.raises(SerializationError):
            small_index.persist(directory)
        # Every file is whole: the shard files were rewritten atomically with
        # the same bytes and the torn meta never replaced the sealed one.
        assert {
            name: (directory / name).read_bytes() for name in _layout_files(directory)
        } == good
        loaded = ReverseTopKIndex.load(directory)
        assert loaded.n_nodes == small_index.n_nodes

    def test_failed_write_leaves_no_temp_files(
        self, small_index, tmp_path, monkeypatch
    ):
        def failing_write(handle, **arrays):
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", failing_write)
        with pytest.raises(SerializationError):
            small_index.persist(tmp_path / "layout")
        assert not [name for name in _layout_files(tmp_path / "layout") if ".tmp-" in name]
        assert not (tmp_path / "layout" / sharding_module._META_NAME).exists()

    def test_successful_persist_leaves_no_temp_files(self, small_index, tmp_path):
        small_index.persist(tmp_path / "layout")
        assert not [name for name in _layout_files(tmp_path / "layout") if ".tmp-" in name]

    def test_persisted_files_have_umask_default_mode(self, small_index, tmp_path):
        import os

        small_index.persist(tmp_path / "layout")
        umask = os.umask(0)
        os.umask(umask)
        # Not mkstemp's private 0600: other readers of a shared snapshot
        # directory must keep working, as with a plain open()-based write.
        for path in (tmp_path / "layout").iterdir():
            assert path.stat().st_mode & 0o777 == 0o666 & ~umask, path.name

    def test_concurrent_persists_of_same_directory_are_safe(
        self, small_index, tmp_path
    ):
        import threading

        directory = tmp_path / "layout"
        errors = []

        def persist():
            try:
                small_index.persist(directory)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=persist) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        loaded = ReverseTopKIndex.load(directory)  # whoever won, the layout is whole
        assert loaded.n_nodes == small_index.n_nodes
        assert not [name for name in _layout_files(directory) if ".tmp-" in name]

    def test_load_truncated_meta_raises_serialization_error(
        self, small_index, tmp_path
    ):
        # A torn write can leave a file that still starts with the zip magic;
        # np.load raises BadZipFile for it, which must surface as our error.
        small_index.persist(tmp_path / "layout")
        meta = tmp_path / "layout" / sharding_module._META_NAME
        payload = meta.read_bytes()
        meta.write_bytes(payload[: len(payload) // 2])
        with pytest.raises(SerializationError):
            ReverseTopKIndex.load(tmp_path / "layout")


#: Every array of the layout's meta archive: the layout version, the shard
#: boundaries, one length-1 array per persisted IndexParams field, the hub
#: data and the recorded sizes.  Renaming any of these breaks every snapshot
#: on disk.
META_ARRAYS = {
    "layout_version", "boundaries",
    "alpha", "capacity", "propagation_threshold", "residue_threshold",
    "rounding_threshold", "hub_budget", "tolerance",
    "hubs", "hub_deficit", "hub_rows", "hub_cols", "hub_vals", "hub_shape",
    "build_seconds", "total_bytes",
}


class TestLoadedIndexIsThePersistedIndex:
    def test_meta_array_set_is_pinned(self, small_index, tmp_path):
        small_index.persist(tmp_path / "layout")
        with np.load(tmp_path / "layout" / sharding_module._META_NAME) as data:
            assert set(data.files) == META_ARRAYS

    @pytest.mark.parametrize("memory_budget", [None, 0])
    def test_load_constructs_no_node_states(
        self, small_index, tmp_path, monkeypatch, memory_budget
    ):
        small_index.persist(tmp_path / "layout")
        constructed = []
        init = index_module.NodeState.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(index_module.NodeState, "__init__", counting_init)
        loaded = ReverseTopKIndex.load(tmp_path / "layout", memory_budget=memory_budget)
        _ = loaded.columns, loaded.total_bytes()
        assert not constructed
        for shard in loaded.shards:
            assert isinstance(shard.store, ColumnarStateStore) and not shard.store.overlay
        loaded.state(0)
        assert len(constructed) == 1  # the counter is live

    def test_write_back_survives_and_repersist_is_byte_identical(
        self, small_index, small_transition, tmp_path
    ):
        engine = ReverseTopKEngine(small_transition, copy.deepcopy(small_index))
        for query in range(engine.n_nodes):
            engine.query(query, engine.index.capacity, update_index=True)
        index = engine.index
        written = sorted(index.shards[0].store.overlay)
        assert written, "the queries must have written refinements back"
        first = index.persist(tmp_path / "first")
        loaded = ReverseTopKIndex.load(first)
        for node in written:
            assert loaded.state(node).residual == index.state(node).residual
            assert loaded.state(node).retained == index.state(node).retained
            np.testing.assert_array_equal(
                loaded.state_arrays(node).lower_bounds,
                index.state_arrays(node).lower_bounds,
            )
        for column in ("lower", "residual_mass", "is_exact"):
            np.testing.assert_array_equal(
                getattr(loaded.columns, column), getattr(index.columns, column)
            )
        second = loaded.persist(tmp_path / "second")
        assert _layout_files(first) == _layout_files(second)
        for name in _layout_files(first):
            if name.endswith(".npy"):
                assert (first / name).read_bytes() == (second / name).read_bytes(), name
        meta = sharding_module._META_NAME
        with np.load(first / meta) as a, np.load(second / meta) as b:
            for name in META_ARRAYS:
                assert a[name].dtype == b[name].dtype, name
                assert a[name].tobytes() == b[name].tobytes(), name


class TestIndexPickling:
    def test_round_trip_preserves_states_and_columns(self, small_index):
        clone = pickle.loads(pickle.dumps(small_index))
        assert clone.n_nodes == small_index.n_nodes
        assert clone.capacity == small_index.capacity
        assert clone.version == small_index.version
        for node, state in small_index.states():
            restored = clone.state(node)
            assert restored.residual == state.residual
            assert restored.retained == state.retained
            assert restored.hub_ink == state.hub_ink
            np.testing.assert_array_equal(restored.lower_bounds, state.lower_bounds)
        # The columnar view travels with the payload.
        np.testing.assert_array_equal(
            clone.columns.lower, small_index.columns.lower
        )
        np.testing.assert_array_equal(
            clone.columns.residual_mass, small_index.columns.residual_mass
        )
        np.testing.assert_array_equal(
            clone.columns.is_exact, small_index.columns.is_exact
        )

    def test_pickle_payload_carries_the_columnar_view(self, small_index):
        (shard,) = small_index.shards
        shard.lower32()  # materialise the mirror: it must not ship
        state = shard.__getstate__()
        assert state["_lower"] is shard.columns.lower
        assert state["_mass"] is shard.columns.residual_mass
        assert state["_exact"] is shard.columns.is_exact
        assert state["_lower32"] is None
        view_bytes = sum(
            getattr(small_index.columns, name).nbytes
            for name in ("lower", "residual_mass", "is_exact")
        )
        n, capacity = small_index.n_nodes, small_index.capacity
        assert view_bytes == capacity * n * 8 + 9 * n

    def test_view_is_never_rebuilt_across_rollover_generations(
        self, medium_web_graph, monkeypatch
    ):
        """clone -> apply_updates -> query write-back -> pickle, four times over.

        Every generation after the first inherits its view through the
        pickle: the per-node mass pass (``column_masses``, one Python-level
        sum per node) runs for generation 0's build only, and at each step
        the travelling view equals one rebuilt from that generation's store,
        bit for bit.
        """
        from repro.core import IndexParams
        from repro.dynamic import DynamicReverseTopKService, GraphUpdate
        from repro.net.rollover import clone_for_rollover

        masses = ColumnarStateStore.column_masses
        calls = []

        def counted(store, *args):
            calls.append(store)
            return masses(store, *args)

        monkeypatch.setattr(ColumnarStateStore, "column_masses", counted)

        def assert_view_matches_store(index):
            for shard in index.shards:
                store = shard.store
                fresh = (
                    store.lower_matrix(),
                    masses(store, index.hubs, index.hub_deficit),
                    store.is_exact_mask(),
                )
                view = shard.columns
                for name, rebuilt in zip(("lower", "residual_mass", "is_exact"), fresh):
                    np.testing.assert_array_equal(
                        getattr(view, name), rebuilt, err_msg=name
                    )

        graph = medium_web_graph
        n = graph.n_nodes
        service = DynamicReverseTopKService.from_graph(
            graph, IndexParams(capacity=10, hub_budget=4)
        )
        assert len(calls) == 1
        try:
            for generation in range(1, 5):
                clone = clone_for_rollover(service)
                service.close()
                service = clone
                source = n - generation  # the youngest nodes: nobody links to them
                target = next(t for t in range(n) if not graph.has_edge(source, t))
                report = service.apply_updates([GraphUpdate.add(source, target)])
                assert report.changed and not report.full_rebuild
                index = service.engine.index
                assert_view_matches_store(index)
                maintained = index.version
                for query in range(generation, n, 7):  # fresh candidates each time
                    service.engine.query(query, index.capacity, update_index=True)
                assert index.version > maintained, "no refinement was written back"
                assert_view_matches_store(index)
                assert_view_matches_store(pickle.loads(pickle.dumps(index)))
        finally:
            service.close()
        assert len(calls) == 1

    def test_pickled_engine_answers_from_the_shipped_view(
        self, medium_web_graph, monkeypatch
    ):
        from repro.serving import ReverseTopKService, ServiceConfig

        engine = ReverseTopKEngine.build(medium_web_graph)
        requests = [(int(q), 5) for q in np.linspace(0, engine.n_nodes - 1, 50)]

        def must_not_rebuild(store, *args):
            raise AssertionError("a pickled index rebuilt its columnar view")

        # The rollover's pickle boundary ships the columns with the shards.
        monkeypatch.setattr(ColumnarStateStore, "column_masses", must_not_rebuild)
        clone = pickle.loads(pickle.dumps(engine))
        answers = []
        for served_engine in (engine, clone):
            service = ReverseTopKService(
                served_engine, ServiceConfig(n_workers=2, cache_capacity=0)
            )
            try:
                answers.append(service.serve(requests))
            finally:
                service.close()
        for live, cloned in zip(*answers):
            np.testing.assert_array_equal(cloned.nodes, live.nodes)
            assert (
                cloned.proximities_to_query.tobytes()
                == live.proximities_to_query.tobytes()
            )

    def test_unpickled_index_still_refines(self, small_index, small_transition):
        clone = pickle.loads(pickle.dumps(small_index))
        engine = ReverseTopKEngine(small_transition, clone)
        before = clone.version
        for query in range(engine.n_nodes):
            engine.query(query, clone.capacity, update_index=True)
        assert clone.version > before  # write-backs work after unpickling


class TestEnginePickling:
    def test_round_trip_answers_identically(self, small_index, small_transition):
        engine = ReverseTopKEngine(small_transition, small_index)
        clone = pickle.loads(pickle.dumps(engine))
        for query in (0, 3, 11):
            expected = engine.query(query, 5, update_index=False)
            actual = clone.query(query, 5, update_index=False)
            np.testing.assert_array_equal(actual.nodes, expected.nodes)
            np.testing.assert_array_equal(
                actual.proximities_to_query, expected.proximities_to_query
            )

    def test_derived_caches_rebuilt(self, small_index, small_transition):
        engine = ReverseTopKEngine(small_transition, small_index)
        clone = pickle.loads(pickle.dumps(engine))
        plan, rebuilt = engine._pmpn_plan, clone._pmpn_plan
        assert rebuilt is not plan
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(
                getattr(rebuilt.transposed, name), getattr(plan.transposed, name)
            )
        np.testing.assert_array_equal(rebuilt.first, plan.first)
        np.testing.assert_array_equal(rebuilt.order, plan.order)
        np.testing.assert_array_equal(clone._hub_mask, engine._hub_mask)
