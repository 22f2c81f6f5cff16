"""Columnar node-state store: the one container of per-node state.

The build/shard hot paths write residual / retained / hub-ink entries
straight into struct-of-arrays storage, and one node's state is read back
as flat segments (``index.state_arrays(node)``).  These tests pin the
contract:

* every shard owns a store — the per-node flat states concatenated into
  one hold the byte-identical arrays;
* the columnar store round-trips through memmap persist/load and pickling
  without changing a byte;
* build observability counters keep flowing.
"""

import pickle

import numpy as np
import pytest

from repro.core import IndexParams
from repro.core.sharding import ReverseTopKIndex, build_index
from repro.exceptions import InvalidParameterError
from repro.graph import transition_matrix
from repro.core.statestore import STATE_ARRAY_NAMES, ColumnarStateStore
from repro.graph.datasets import load_dataset
from repro.obs.registry import get_registry

from tests.reference import (
    SeedState,
    assert_same_state,
    index_from_states,
    index_states,
)

PARAMS = IndexParams(capacity=8, hub_budget=6)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("web-stanford-cs", scale=0.12)


@pytest.fixture(scope="module")
def store_index(graph):
    return build_index(graph, PARAMS.for_graph(graph.n_nodes))


def assert_states_equal(left, right):
    assert left.n_nodes == right.n_nodes
    for (_, state_a), (_, state_b) in zip(index_states(left), index_states(right)):
        assert_same_state(state_a, state_b)


class TestEveryIndexOwnsAStore:
    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_every_build_is_store_backed(self, graph, n_shards):
        index = build_index(graph, PARAMS.for_graph(graph.n_nodes), n_shards=n_shards)
        for shard in index.shards:
            assert isinstance(shard.store, ColumnarStateStore)
            assert not shard.store.overlay

    def test_state_list_is_flattened_once_into_a_store(self, store_index):
        # store -> per-node flat states -> store: the same bytes.
        twin = index_from_states(
            store_index.params,
            store_index.hubs,
            store_index.hub_matrix,
            store_index.hub_deficit,
            [state for _, state in index_states(store_index)],
        )
        (store,), (original,) = (
            [shard.store for shard in twin.shards],
            [shard.store for shard in store_index.shards],
        )
        for name in STATE_ARRAY_NAMES:
            np.testing.assert_array_equal(store.arrays[name], original.arrays[name])
            assert store.arrays[name].dtype == original.arrays[name].dtype
        for column in ("lower", "residual_mass", "is_exact"):
            np.testing.assert_array_equal(
                getattr(twin.columns, column), getattr(store_index.columns, column)
            )

    def test_seed_state_round_trips_flat_segments(self, store_index):
        # The test-side dict state keeps storage order both ways, so a
        # flat state survives the trip bit for bit, order included.
        for _, state in index_states(store_index):
            again = SeedState.of(state).flat()
            for plane in ("residual", "retained", "hub_ink"):
                for got, want in zip(getattr(again, plane), getattr(state, plane)):
                    np.testing.assert_array_equal(got, want)
                    assert got.dtype == want.dtype
            np.testing.assert_array_equal(again.lower_bounds, state.lower_bounds)
            assert (again.iterations, again.is_hub) == (state.iterations, state.is_hub)

    def test_build_emits_observability_counters(self, graph):
        registry = get_registry()
        family = registry.counter(
            "repro_index_builds_total", "Completed index builds"
        )
        seconds = registry.counter(
            "repro_index_build_seconds_total", "Seconds per index-build phase",
            labels=("stage",),
        )
        before = family.value
        seconds_before = seconds.labels(stage="bca").value
        build_index(graph, PARAMS.for_graph(graph.n_nodes))
        after = family.value
        seconds_after = seconds.labels(stage="bca").value
        assert after == before + 1
        assert seconds_after > seconds_before


class TestAssembleStore:
    def test_every_non_hub_row_must_be_collected(self, graph):
        # There are no "untargeted" rows: a range's store is its collected
        # BCA rows plus its hub rows, and a gap is an error, not a silent
        # one-unit-of-residue placeholder.
        import scipy.sparse as sp

        from repro.core import HubSet, PropagationKernel
        from repro.core.statestore import assemble_store

        params = IndexParams(capacity=4, hub_budget=0).for_graph(graph.n_nodes)
        matrix = sp.csc_matrix(transition_matrix(graph))
        hub_mask = np.zeros(graph.n_nodes, dtype=bool)
        kernel = PropagationKernel(
            matrix, hub_mask, params, hubs=HubSet(()), hub_matrix=sp.csc_matrix((graph.n_nodes, 0))
        )
        part = kernel.run([0, 2])
        with pytest.raises(InvalidParameterError, match="missing"):
            assemble_store(0, 3, params.capacity, [part], hub_mask, {})
        whole = assemble_store(
            0, 3, params.capacity, [part, kernel.run([1])], hub_mask, {}
        )
        assert whole.n_states == 3


class TestRoundTrips:
    def test_sharded_memmap_persist_load_bitwise(self, graph, store_index, tmp_path):
        sharded = build_index(
            graph,
            PARAMS.for_graph(graph.n_nodes),
            n_shards=3,
            directory=tmp_path / "layout",
            memory_budget=0,
        )
        loaded = ReverseTopKIndex.load(tmp_path / "layout", memory_budget=0)
        np.testing.assert_array_equal(
            np.asarray(loaded.kth_lower_bounds(PARAMS.capacity)),
            np.asarray(sharded.kth_lower_bounds(PARAMS.capacity)),
        )
        for shard, twin in zip(sharded.shards, loaded.shards):
            np.testing.assert_array_equal(
                np.asarray(shard.columns.lower), np.asarray(twin.columns.lower)
            )
            np.testing.assert_array_equal(
                np.asarray(shard.columns.residual_mass),
                np.asarray(twin.columns.residual_mass),
            )
        assert_states_equal(sharded, loaded)
        # ... and matches the one-shard build bitwise.
        np.testing.assert_array_equal(
            np.hstack([np.asarray(s.columns.lower) for s in loaded.shards]),
            store_index.columns.lower,
        )

    def test_pickle_round_trip_bitwise(self, graph):
        sharded = build_index(
            graph, PARAMS.for_graph(graph.n_nodes), n_shards=2
        )
        clone = pickle.loads(pickle.dumps(sharded))
        for shard, twin in zip(sharded.shards, clone.shards):
            np.testing.assert_array_equal(
                np.asarray(shard.columns.lower), np.asarray(twin.columns.lower)
            )
        assert_states_equal(sharded, clone)

    def test_store_pickles_merged_arrays_and_leaves_the_source_alone(self, graph):
        """The copy gets flat arrays and an empty overlay (rollover clones)."""
        index = build_index(graph, PARAMS.for_graph(graph.n_nodes))
        (shard,) = index.shards
        store = shard.store
        # Rewrite a few states the way refinement and the maintainer do:
        # grown, shrunk and emptied sparse rows.
        grown, shrunk, emptied = [
            node for node, state in index_states(index) if len(state.residual[0])
        ][:3]
        views = {
            node: SeedState.of(index.state_arrays(node))
            for node in (grown, shrunk, emptied)
        }
        views[grown].residual[graph.n_nodes - 1] = 0.125
        views[shrunk].residual.popitem()
        views[emptied].residual.clear()
        for node, view in views.items():
            index.set_state(node, view.flat())
        pinned = dict(store.overlay)
        expected = store.to_arrays()

        clone = pickle.loads(pickle.dumps(index))
        cloned = clone.shards[0].store

        assert cloned.overlay == {}
        assert set(store.overlay) == {grown, shrunk, emptied}
        assert all(store.overlay[node] is state for node, state in pinned.items())
        for name in STATE_ARRAY_NAMES:
            np.testing.assert_array_equal(cloned.arrays[name], expected[name])
        assert_states_equal(index, clone)
        # Storage order feeds the sequential mass sums: it must survive too.
        assert clone.state_arrays(grown).residual[0].tolist() == list(
            views[grown].residual
        )
        assert cloned.stored_entries() == store.stored_entries()

    def test_state_array_layout_is_stable(self):
        # The 11-array layout is a persistence format; renaming/reordering
        # breaks memmap layouts on disk.  P̂ is the shard's lower.npy.
        assert STATE_ARRAY_NAMES == (
            "residual_indptr", "residual_keys", "residual_values",
            "retained_indptr", "retained_keys", "retained_values",
            "hub_ink_indptr", "hub_ink_keys", "hub_ink_values",
            "iterations", "is_hub",
        )
