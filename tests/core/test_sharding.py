"""Unit tests for the index's node-range shards and the per-shard scan."""

import pickle
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    IndexParams,
    ReverseTopKEngine,
    ReverseTopKIndex,
    build_index,
    columnar_stage_decisions,
    shard_boundaries,
)
from repro.core.bounds import kth_upper_bound, kth_upper_bounds_batch
from repro.core.index import ColumnarView
from repro.core.sharding import _META_NAME
from repro.core.statestore import STATE_ARRAY_NAMES
from repro.exceptions import InvalidParameterError, SerializationError
from repro.graph import copying_web_graph, transition_matrix
from tests.reference import SCAN_COUNTERS, reference_scan


@pytest.fixture(scope="module")
def medium_setup():
    graph = copying_web_graph(123, out_degree=4, seed=17)
    matrix = transition_matrix(graph)
    params = IndexParams(capacity=10, hub_budget=4)
    index = build_index(graph, params, transition=matrix)
    return graph, matrix, params, index


def partitioned(setup, n_shards, **options):
    """The setup's index built again over ``n_shards`` shards."""
    graph, matrix, params, _ = setup
    return build_index(graph, params, transition=matrix, n_shards=n_shards, **options)


class TestShardBoundaries:
    def test_even_split(self):
        np.testing.assert_array_equal(shard_boundaries(12, 4), [0, 3, 6, 9, 12])

    def test_uneven_split_front_loads_remainder(self):
        np.testing.assert_array_equal(shard_boundaries(10, 3), [0, 4, 7, 10])

    def test_more_shards_than_nodes_clamps(self):
        np.testing.assert_array_equal(shard_boundaries(3, 8), [0, 1, 2, 3])

    def test_single_shard(self):
        np.testing.assert_array_equal(shard_boundaries(5, 1), [0, 5])

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            shard_boundaries(0, 2)
        with pytest.raises(ValueError):
            shard_boundaries(5, 0)


class TestShardedIndexRam:
    def test_shard_columns_are_slices_of_the_one_shard_view(self, medium_setup):
        index = medium_setup[3]
        sharded = partitioned(medium_setup, 5)
        assert sharded.n_shards == 5
        columns = index.columns
        for shard in sharded.shards:
            view = shard.columns
            np.testing.assert_array_equal(
                np.asarray(view.lower), columns.lower[:, shard.start : shard.stop]
            )
            np.testing.assert_array_equal(
                np.asarray(view.residual_mass),
                columns.residual_mass[shard.start : shard.stop],
            )
            np.testing.assert_array_equal(
                np.asarray(view.is_exact), columns.is_exact[shard.start : shard.stop]
            )

    def test_columns_is_live_at_one_shard_and_a_copy_at_several(self, medium_setup):
        index = medium_setup[3]
        (shard,) = index.shards
        assert index.columns.lower is shard.columns.lower
        sharded = partitioned(medium_setup, 3)
        for name in ("lower", "residual_mass", "is_exact"):
            np.testing.assert_array_equal(
                getattr(sharded.columns, name), getattr(index.columns, name)
            )

    def test_state_routing_matches_one_shard(self, medium_setup):
        index = medium_setup[3]
        sharded = partitioned(medium_setup, 4)
        for node in (0, 30, 61, 62, 122):
            expected = index.state(node)
            routed = sharded.state(node)
            assert routed.residual == expected.residual
            assert routed.retained == expected.retained
            assert routed.hub_ink == expected.hub_ink
            assert routed.is_hub == expected.is_hub

    def test_kth_lower_bounds_concatenate_across_shards(self, medium_setup):
        index = medium_setup[3]
        sharded = partitioned(medium_setup, 7)
        for k in (1, 5, index.capacity):
            np.testing.assert_array_equal(
                sharded.kth_lower_bounds(k), index.kth_lower_bounds(k)
            )
        with pytest.raises(InvalidParameterError):
            sharded.kth_lower_bounds(index.capacity + 1)

    def test_set_state_bumps_global_version_once(self, medium_setup):
        sharded = partitioned(medium_setup, 3)
        assert sharded.version == 0
        state = sharded.state(50)
        sharded.set_state(50, state)
        assert sharded.version == 1
        sharded.set_state(100, sharded.state_arrays(100))
        assert sharded.version == 2

    def test_adopt_swaps_in_place_with_one_bump(self, medium_setup):
        sharded = partitioned(medium_setup, 3)
        fresh = partitioned(medium_setup, 3)
        sharded.set_state(0, sharded.state(0))  # version -> 1
        sharded.adopt(fresh)
        assert sharded.version == 2
        assert sharded.shards is not fresh.shards

    def test_storage_accounting_does_not_depend_on_shards(self, medium_setup):
        index = medium_setup[3]
        assert partitioned(medium_setup, 4).storage_bytes() == index.storage_bytes()

    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_each_shard_holds_one_lower_plane(self, medium_setup, n_shards):
        # P̂ lives once per shard: the store borrows the columnar plane, keeps
        # no bounds array of its own, and each stored node's bounds view it.
        index = partitioned(medium_setup, n_shards)
        for shard in index.shards:
            plane = shard.columns.lower
            assert plane.shape == (index.capacity, shard.n_nodes)
            assert plane.dtype == np.float64
            assert shard.store.lower is plane
            assert set(shard.store.arrays) == set(STATE_ARRAY_NAMES)
            for local in range(shard.n_nodes):
                bounds = shard.store.state_arrays(local).lower_bounds
                assert np.shares_memory(bounds, plane), (shard.start, local)

    def test_resident_bytes_count_the_plane_once(self, medium_setup):
        index = partitioned(medium_setup, 3)
        for shard in index.shards:
            columns = shard.columns
            expected = (
                columns.lower.nbytes
                + columns.residual_mass.nbytes
                + columns.is_exact.nbytes
                + sum(array.nbytes for array in shard.store.arrays.values())
            )
            assert shard.resident_bytes() == expected


class TestShardedLayoutOnDisk:
    def test_memmap_round_trip_is_bitwise(self, medium_setup, tmp_path):
        _, _, _, index = medium_setup
        sharded = partitioned(medium_setup, 4)
        sharded.persist(tmp_path / "layout")
        loaded = ReverseTopKIndex.load(tmp_path / "layout", memory_budget=0)
        assert all(shard.backing == "memmap" for shard in loaded.shards)
        columns = index.columns
        for shard in loaded.shards:
            np.testing.assert_array_equal(
                np.asarray(shard.columns.lower),
                columns.lower[:, shard.start : shard.stop],
            )
        for node in (0, 40, 122):
            assert loaded.state(node).retained == index.state(node).retained

    def test_load_without_budget_materialises_to_ram(self, medium_setup, tmp_path):
        _, _, _, index = medium_setup
        partitioned(medium_setup, 3).persist(tmp_path / "ram")
        loaded = ReverseTopKIndex.load(tmp_path / "ram")
        assert all(shard.backing == "ram" for shard in loaded.shards)

    def test_lazy_load_keeps_resident_bytes_below_total(self, medium_setup, tmp_path):
        _, _, _, index = medium_setup
        partitioned(medium_setup, 4).persist(tmp_path / "lazy")
        loaded = ReverseTopKIndex.load(tmp_path / "lazy", memory_budget=0)
        assert loaded.resident_bytes() < loaded.total_bytes()

    def test_write_back_promotes_shard_but_disk_layout_is_immutable(
        self, medium_setup, tmp_path
    ):
        _, _, _, index = medium_setup
        directory = tmp_path / "immutable"
        partitioned(medium_setup, 4).persist(directory)
        snapshot = {
            path.name: path.read_bytes() for path in sorted(directory.iterdir())
        }
        loaded = ReverseTopKIndex.load(directory, memory_budget=0)
        node = 5
        state = loaded.state(node)
        state.lower_bounds = np.full(loaded.capacity, 0.5)
        loaded.set_state(node, state)
        shard, local = loaded.shard_of(node)
        assert shard.is_promoted
        assert float(np.asarray(shard.columns.lower)[0, local]) == 0.5
        # Every byte on disk is untouched: the layout is content-addressed.
        for path in sorted(directory.iterdir()):
            assert path.read_bytes() == snapshot[path.name], path.name

    def test_memmap_shard_maps_the_one_lower_file(self, medium_setup, tmp_path):
        directory = tmp_path / "mapped"
        partitioned(medium_setup, 3).persist(directory)
        loaded = ReverseTopKIndex.load(directory, memory_budget=0)
        for ordinal, shard in enumerate(loaded.shards):
            plane = shard.columns.lower
            assert isinstance(plane, np.memmap) and not plane.flags.writeable
            assert Path(plane.filename).name == f"shard-{ordinal:05d}.lower.npy"
            assert shard.store.lower is plane
            bounds = shard.store.state_arrays(0).lower_bounds
            assert np.shares_memory(bounds, plane)

    def test_promote_repoints_the_store_at_the_private_plane(
        self, medium_setup, tmp_path
    ):
        directory = tmp_path / "promote"
        partitioned(medium_setup, 3).persist(directory)
        loaded = ReverseTopKIndex.load(directory, memory_budget=0)
        node = 70
        shard, local = loaded.shard_of(node)
        mapped = shard.store.lower
        state = loaded.state_arrays(node)
        loaded.set_state(node, state)
        plane = shard.columns.lower
        assert shard.is_promoted and plane is not mapped
        assert not isinstance(plane, np.memmap) and plane.flags.writeable
        assert shard.store.lower is plane
        for other in range(shard.n_nodes):
            assert np.shares_memory(shard.store.state_arrays(other).lower_bounds, plane)
        np.testing.assert_array_equal(plane, mapped)

    def test_state_is_by_value_and_set_state_writes_on_memmap(
        self, medium_setup, tmp_path
    ):
        # A lazy shard hands out detached views: mutating one changes nothing
        # (no pin, no version bump) until it is handed back via set_state.
        _, _, _, index = medium_setup
        partitioned(medium_setup, 3).persist(tmp_path / "sync")
        loaded = ReverseTopKIndex.load(tmp_path / "sync", memory_budget=0)
        node = next(v for v, s in index.states() if s.residual)
        state = loaded.state(node)
        assert loaded.state(node) is not state
        state.residual.clear()
        shard, local = loaded.shard_of(node)
        assert loaded.state(node).residual and not shard.store.overlay
        assert loaded.version == 0 and not shard.is_promoted
        loaded.set_state(node, state)
        assert loaded.state(node).residual == {} and loaded.version == 1
        assert bool(np.asarray(shard.columns.is_exact)[local])

    def test_state_arrays_stay_memmapped_per_node(self, medium_setup, tmp_path):
        # Regression: the first state() touch used to decompress the whole
        # shard's states into RAM; now the arrays stay memory-mapped and a
        # single candidate materialises by slicing one node's rows.
        _, _, _, index = medium_setup
        partitioned(medium_setup, 3).persist(tmp_path / "pernode")
        loaded = ReverseTopKIndex.load(tmp_path / "pernode", memory_budget=0)
        shard, _ = loaded.shard_of(0)
        loaded.state(0)
        assert all(
            isinstance(array, np.memmap) for array in shard.store.arrays.values()
        )
        # Nothing became resident: the view is by value, the arrays mapped.
        assert not shard.store.overlay and shard.resident_bytes() == 0

    def test_directory_without_budget_archives_ram_build(
        self, medium_setup, tmp_path
    ):
        # Regression: the partitioned build used to silently drop directory=
        # when no memory_budget was given.
        graph, matrix, params, _ = medium_setup
        built = build_index(
            graph,
            params,
            transition=matrix,
            n_shards=3,
            directory=tmp_path / "archived",
        )
        assert built.directory is not None
        assert all(shard.backing == "ram" for shard in built.shards)
        reloaded = ReverseTopKIndex.load(
            tmp_path / "archived", memory_budget=0
        )
        np.testing.assert_array_equal(
            reloaded.kth_lower_bounds(5), built.kth_lower_bounds(5)
        )

    def test_missing_meta_is_a_serialization_error(self, medium_setup, tmp_path):
        _, _, _, index = medium_setup
        directory = tmp_path / "torn"
        partitioned(medium_setup, 2).persist(directory)
        (directory / _META_NAME).unlink()
        with pytest.raises(SerializationError):
            ReverseTopKIndex.load(directory)

    def test_missing_shard_file_is_a_serialization_error(
        self, medium_setup, tmp_path
    ):
        _, _, _, index = medium_setup
        directory = tmp_path / "hole"
        partitioned(medium_setup, 2).persist(directory)
        (directory / "shard-00001.lower.npy").unlink()
        with pytest.raises(SerializationError):
            ReverseTopKIndex.load(directory, memory_budget=0)

    def test_memmap_requires_directory(self, medium_setup):
        _, _, _, index = medium_setup
        with pytest.raises(InvalidParameterError):
            partitioned(medium_setup, 2, memory_budget=0)

    def test_clean_memmap_shards_pickle_by_reference(self, medium_setup, tmp_path):
        _, matrix, _, index = medium_setup
        directory = tmp_path / "pickle"
        partitioned(medium_setup, 4).persist(directory)
        loaded = ReverseTopKIndex.load(directory, memory_budget=0)
        engine = ReverseTopKEngine(matrix, loaded)
        blob = pickle.dumps(engine)
        clone = pickle.loads(blob)
        a = ReverseTopKEngine(matrix, index).query(3, 5, update_index=False)
        b = clone.query_many_readonly([3], 5)[0]
        np.testing.assert_array_equal(a.nodes, b.nodes)
        # A clean memmap engine ships paths, not arrays: far smaller than
        # the in-RAM engine's payload.
        assert len(blob) < len(pickle.dumps(ReverseTopKEngine(matrix, index)))


    def test_written_memmap_shard_pickles_a_merged_store(self, medium_setup, tmp_path):
        # The store's own __getstate__: a shard carrying write-backs ships
        # flat arrays with the overlay merged in (never the overlay itself);
        # its clean neighbours still ship a path reference only.
        _, _, _, index = medium_setup
        directory = tmp_path / "written"
        partitioned(medium_setup, 3).persist(directory)
        loaded = ReverseTopKIndex.load(directory, memory_budget=0)
        node = 5
        state = loaded.state(node)
        state.retained[0] = 0.25
        loaded.set_state(node, state)
        clone = pickle.loads(pickle.dumps(loaded))
        # The second generation's store is clean but no longer disk-backed:
        # its merged heap arrays must keep shipping, or the third reopens the
        # stale layout under the promoted columns.
        for clone in (clone, pickle.loads(pickle.dumps(clone))):
            written, local = clone.shard_of(node)
            assert written.is_promoted and not written.store.overlay
            assert clone.state(node).retained == loaded.state(node).retained
            assert loaded.shard_of(node)[0].store.overlay.keys() == {local}
            for shard in clone.shards:
                if shard is not written:
                    assert shard._store is None and shard._lower is None
            assert clone.total_bytes() == loaded.total_bytes()
            for (_, a), (_, b) in zip(clone.states(), loaded.states()):
                assert (a.residual, a.retained, a.hub_ink) == (
                    b.residual, b.retained, b.hub_ink
                )
            for a, b in zip(clone.shards, loaded.shards):
                for column in ("lower", "residual_mass", "is_exact"):
                    np.testing.assert_array_equal(
                        getattr(a.columns, column), getattr(b.columns, column)
                    )


class TestBuildIndexOutOfCore:
    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_streamed_build_goes_straight_to_layout(
        self, medium_setup, tmp_path, n_shards
    ):
        # The budget needs no shard count: one shard streams out too.
        graph, matrix, params, index = medium_setup
        directory = tmp_path / "streamed"
        built = build_index(
            graph,
            params,
            transition=matrix,
            n_shards=n_shards,
            directory=directory,
            memory_budget=0,
        )
        assert built.n_shards == n_shards
        assert all(shard.backing == "memmap" for shard in built.shards)
        assert (directory / _META_NAME).exists()
        columns = index.columns
        for shard in built.shards:
            np.testing.assert_array_equal(
                np.asarray(shard.columns.lower),
                columns.lower[:, shard.start : shard.stop],
            )

    def test_budget_backing_decision_uses_real_total(self, medium_setup, tmp_path):
        # Regression: the cold build used to decide the backing from the
        # column+hub estimate alone; with states dominating the index, a
        # budget between that estimate and the real total kept an over-budget
        # index in RAM while a warm start of the same layout went memmap.
        graph, matrix, params, index = medium_setup
        sizes = index.storage_bytes()
        assert sizes["total"] > sizes["lower_bounds"] + sizes["hub_matrix"]
        budget = sizes["lower_bounds"] + sizes["hub_matrix"] + 1
        built = build_index(
            graph,
            params,
            transition=matrix,
            n_shards=3,
            directory=tmp_path / "tight",
            memory_budget=budget,
        )
        assert all(shard.backing == "memmap" for shard in built.shards)
        reloaded = ReverseTopKIndex.load(
            tmp_path / "tight", memory_budget=budget
        )
        assert all(shard.backing == "memmap" for shard in reloaded.shards)
        # A budget the whole index fits in resolves to RAM on both paths.
        roomy = build_index(
            graph,
            params,
            transition=matrix,
            n_shards=3,
            directory=tmp_path / "roomy",
            memory_budget=sizes["total"] * 10,
        )
        assert all(shard.backing == "ram" for shard in roomy.shards)

    def test_overlay_write_backs_update_size_accounting(
        self, medium_setup, tmp_path
    ):
        # Regression: stored_entries/resident_bytes ignored the memmap
        # shard's write overlay, so a re-persisted layout recorded stale
        # totals after refinement write-backs.
        import numpy as np

        _, _, _, index = medium_setup
        partitioned(medium_setup, 3).persist(tmp_path / "acct")
        loaded = ReverseTopKIndex.load(tmp_path / "acct", memory_budget=0)
        node = 5
        before = loaded.storage_bytes()["bca_state"]
        replaced_entries = index.state(node).stored_entries()
        state = loaded.state(node)
        state.retained = {0: 1.0}
        state.residual = {}
        state.hub_ink = {}
        loaded.set_state(node, state)
        after = loaded.storage_bytes()["bca_state"]
        assert after == before - (replaced_entries - 1) * 16
        shard, _ = loaded.shard_of(node)
        assert shard.resident_bytes() > 0  # overlay + promoted columns count

class TestShardedEngine:
    @pytest.mark.parametrize("memory_budget", [None, 0])
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_serial_scan_matches_one_shard(
        self, medium_setup, tmp_path, n_shards, memory_budget
    ):
        # The scan visits the shards one after another; its answers and every
        # counter equal the one-shard scan's, in RAM and over memmap shards.
        _, matrix, _, index = medium_setup
        options = {} if memory_budget is None else {"directory": tmp_path}
        sharded = partitioned(
            medium_setup, n_shards, memory_budget=memory_budget, **options
        )
        router = ReverseTopKEngine(matrix, sharded)
        reference = ReverseTopKEngine(matrix, index)
        for query in (0, 17, 64, 122):
            a = reference.query(query, 5, update_index=False)
            b = router.query(query, 5, update_index=False)
            np.testing.assert_array_equal(b.nodes, a.nodes)
            np.testing.assert_array_equal(
                b.proximities_to_query, a.proximities_to_query
            )
            for counter in SCAN_COUNTERS:
                assert getattr(b.statistics, counter) == getattr(
                    a.statistics, counter
                ), counter

    def test_rebind_keeps_the_index_and_its_answers(self, medium_setup):
        _, matrix, _, _ = medium_setup
        router = ReverseTopKEngine(matrix, partitioned(medium_setup, 3))
        index = router.index
        before = router.query(40, 5, update_index=False)
        router.rebind(matrix)
        assert router.index is index
        after = router.query(40, 5, update_index=False)
        np.testing.assert_array_equal(after.nodes, before.nodes)

    def test_routed_scan_matches_reference_scan(self, medium_setup):
        _, matrix, _, _ = medium_setup
        router = ReverseTopKEngine(matrix, partitioned(medium_setup, 3))
        # The routed columnar scan against the per-node reference scan.

        a = router.query(11, 5, update_index=False)
        nodes, counters = reference_scan(router, 11, 5, update_index=False)
        np.testing.assert_array_equal(a.nodes, nodes)
        for counter in SCAN_COUNTERS:
            assert getattr(a.statistics, counter) == counters[counter], counter


def _view(lower, masses, is_exact=None):
    lower = np.asarray(lower, dtype=np.float64)
    n = lower.shape[1]
    if is_exact is None:
        is_exact = np.zeros(n, dtype=bool)
    return ColumnarView(
        lower=lower,
        residual_mass=np.asarray(masses, dtype=np.float64),
        is_exact=np.asarray(is_exact, dtype=bool),
    )


def _per_column_decisions(proximity, columns, k):
    """Algorithm 4's three stages, one column at a time (the oracle)."""
    exact, candidates, hits, n_pruned = [], [], [], 0
    for node in range(proximity.size):
        lower = columns.lower[:, node]
        if proximity[node] < lower[k - 1]:
            n_pruned += 1
        elif columns.is_exact[node]:
            exact.append(node)
        else:
            candidates.append(node)
            upper = kth_upper_bound(lower, columns.residual_mass[node], k)
            hits.append(proximity[node] >= upper)
    return exact, candidates, hits, n_pruned


def _assert_matches_per_column(proximity, columns, k):
    exact, candidates, hits, n_pruned, n_floor = columnar_stage_decisions(
        proximity, columns, k
    )
    assert n_floor == 0  # known values decide every test
    expected = _per_column_decisions(proximity, columns, k)
    np.testing.assert_array_equal(exact, np.asarray(expected[0], dtype=np.int64))
    np.testing.assert_array_equal(
        candidates, np.asarray(expected[1], dtype=np.int64)
    )
    np.testing.assert_array_equal(hits, np.asarray(expected[2], dtype=bool))
    assert n_pruned == expected[3]


class TestColumnarStageDecisions:
    """Hand-built columns pinned within one ULP of each decision boundary."""

    def test_threshold_one_ulp_each_side_of_proximity(self):
        p = 0.123456789012345
        thresholds = np.array(
            [
                np.nextafter(p, np.inf),  # prune: p < threshold
                p,  # survive: p >= threshold (tie)
                np.nextafter(p, -np.inf),  # survive
            ]
        )
        n = thresholds.size
        lower = np.vstack([np.full(n, 0.9), thresholds])
        _, candidates, _, n_pruned, _ = columnar_stage_decisions(
            np.full(n, p), _view(lower, np.zeros(n)), 2
        )
        assert n_pruned == 1
        np.testing.assert_array_equal(candidates, [1, 2])

    def test_staircase_tie_at_the_upper_bound(self):
        # One non-exact column whose staircase upper bound we hit exactly,
        # one we miss by one ULP in each direction.
        lower = np.array([[0.5, 0.5, 0.5], [0.3, 0.3, 0.3]])
        masses = np.array([0.1, 0.1, 0.1])
        upper = kth_upper_bounds_batch(lower, masses, 2)
        proximity = np.array(
            [upper[0], np.nextafter(upper[1], np.inf), np.nextafter(upper[2], -np.inf)]
        )
        _, candidates, hits, _, _ = columnar_stage_decisions(
            proximity, _view(lower, masses), 2
        )
        np.testing.assert_array_equal(candidates, [0, 1, 2])
        # The tie and the +1 ULP columns are hits; the -1 ULP column is not.
        assert hits.tolist() == [True, True, False]

    def test_exact_columns_shortcut(self):
        lower = np.array([[0.4, 0.4, 0.4], [0.2, 0.2, 0.2]])
        is_exact = np.array([True, False, True])
        columns = _view(lower, np.array([0.0, 0.3, 0.0]), is_exact)
        proximity = np.array([0.2, 0.2, np.nextafter(0.2, -np.inf)])
        exact, candidates, _, n_pruned, _ = columnar_stage_decisions(
            proximity, columns, 2
        )
        np.testing.assert_array_equal(exact, [0])
        np.testing.assert_array_equal(candidates, [1])
        assert n_pruned == 1

    def test_subnormal_and_zero_thresholds(self):
        thresholds = np.array([0.0, 5e-324, 1e-300, 1e-45, 1e-38])
        n = thresholds.size
        lower = np.vstack([np.full(n, 1e-200), thresholds])
        lower = np.sort(np.maximum(lower, thresholds), axis=0)[::-1]
        columns = _view(lower, np.zeros(n))
        for p in (0.0, 5e-324, 1e-300, 1e-40):
            _assert_matches_per_column(np.full(n, p), columns, 2)
        # A zero proximity survives only the zero threshold.
        _, candidates, _, n_pruned, _ = columnar_stage_decisions(
            np.zeros(n), columns, 2
        )
        np.testing.assert_array_equal(candidates, [0])
        assert n_pruned == n - 1

    def test_randomized_sweep_matches_per_column_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            capacity = int(rng.integers(1, 6))
            k = int(rng.integers(1, capacity + 1))
            lower = np.sort(rng.uniform(0.0, 0.5, size=(capacity, n)), axis=0)[::-1]
            # Sprinkle exact ties with the k-th lower bound to stress the
            # boundary comparisons.
            proximity = rng.uniform(0.0, 0.6, size=n)
            tie = rng.random(n) < 0.2
            proximity[tie] = lower[k - 1, tie]
            masses = rng.uniform(0.0, 0.4, size=n) * (rng.random(n) < 0.7)
            is_exact = rng.random(n) < 0.3
            _assert_matches_per_column(proximity, _view(lower, masses, is_exact), k)

    def test_interval_sweep_decides_what_both_ends_agree_on(self):
        """On ``[lower, upper]`` a test is decided by its ends when they agree.

        The others are decided on the point PMPN settles on, one floor
        decision each.
        """

        class Interval:
            at_floor = settled = True

            def __init__(self, lower, upper, point):
                self.ends, self.proximities = (lower, upper), point

            def interval(self, nodes):
                return self.ends[0][nodes], self.ends[1][nodes]

            def advance(self):
                raise AssertionError("at the floor: no more rounds")

        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            capacity = int(rng.integers(1, 6))
            k = int(rng.integers(1, capacity + 1))
            lower = np.sort(rng.uniform(0.0, 0.5, size=(capacity, n)), axis=0)[::-1]
            masses = rng.uniform(0.0, 0.4, size=n) * (rng.random(n) < 0.7)
            columns = _view(lower, masses, rng.random(n) < 0.3)
            low = rng.uniform(0.0, 0.6, size=n)
            # Some points, as outside the row set, among intervals.
            high = low + rng.choice([0.0, 1e-3, 0.05, 0.3], size=n)
            point = low + rng.random(n) * (high - low)
            exact, candidates, hits, n_pruned, n_floor = columnar_stage_decisions(
                Interval(low, high, point), columns, k
            )
            expected = _per_column_decisions(point, columns, k)
            np.testing.assert_array_equal(exact, expected[0])
            np.testing.assert_array_equal(candidates, expected[1])
            np.testing.assert_array_equal(hits, expected[2])
            assert n_pruned == expected[3]
            floors = 0
            for node in range(n):
                kth = lower[k - 1, node]
                floors += low[node] < kth <= high[node]
                if point[node] >= kth and not columns.is_exact[node]:
                    upper = kth_upper_bound(lower[:, node], masses[node], k)
                    floors += low[node] < upper <= high[node]
            assert n_floor == floors
