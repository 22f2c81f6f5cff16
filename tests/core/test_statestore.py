"""Columnar node-state store: the one container of per-node state.

The build/shard hot paths write residual / retained / hub-ink entries
straight into struct-of-arrays storage; ``NodeState`` survives only as a
by-value per-node *view*.  These tests pin the contract:

* every shard owns a store — a ``List[NodeState]`` flattened into one holds
  the byte-identical arrays;
* building never materialises per-node ``NodeState`` objects (module
  counter);
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
from repro.core.statestore import (
    STATE_ARRAY_NAMES,
    ColumnarStateStore,
    materialization_count,
    reset_materialization_count,
)
from repro.graph.datasets import load_dataset
from repro.obs.registry import get_registry

from tests.reference import index_from_states

PARAMS = IndexParams(capacity=8, hub_budget=6)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("web-stanford-cs", scale=0.12)


@pytest.fixture(scope="module")
def store_index(graph):
    return build_index(graph, PARAMS.for_graph(graph.n_nodes))


def assert_states_equal(left, right):
    for (node_a, state_a), (node_b, state_b) in zip(left.states(), right.states()):
        assert node_a == node_b
        assert state_a.residual == state_b.residual
        assert state_a.retained == state_b.retained
        assert state_a.hub_ink == state_b.hub_ink
        assert state_a.is_hub == state_b.is_hub
        np.testing.assert_array_equal(state_a.lower_bounds, state_b.lower_bounds)


class TestEveryIndexOwnsAStore:
    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_every_build_is_store_backed(self, graph, n_shards):
        index = build_index(graph, PARAMS.for_graph(graph.n_nodes), n_shards=n_shards)
        for shard in index.shards:
            assert isinstance(shard.store, ColumnarStateStore)
            assert not shard.store.overlay

    def test_state_list_is_flattened_once_into_a_store(self, store_index):
        # store -> by-value states -> store: the same bytes.
        twin = index_from_states(
            store_index.params,
            store_index.hubs,
            store_index.hub_matrix,
            store_index.hub_deficit,
            [state for _, state in store_index.states()],
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


class TestNoMaterializationOnBuild:
    def test_sharded_build_materialises_zero_nodestates(self, graph):
        reset_materialization_count()
        index = build_index(
            graph, PARAMS.for_graph(graph.n_nodes), n_shards=3
        )
        assert materialization_count() == 0
        # Asking for a by-value view *does* count — the counter is live —
        # while the flat-segment read the engine uses does not.
        _ = index.state(0)
        _ = index.state_arrays(0)
        assert materialization_count() == 1

    def test_one_shard_build_materialises_zero_nodestates(self, graph):
        reset_materialization_count()
        build_index(graph, PARAMS.for_graph(graph.n_nodes))
        assert materialization_count() == 0


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
            node for node, state in index.states() if state.residual
        ][:3]
        views = {node: index.state(node) for node in (grown, shrunk, emptied)}
        views[grown].residual[graph.n_nodes - 1] = 0.125
        views[shrunk].residual.popitem()
        views[emptied].residual.clear()
        for node, view in views.items():
            index.set_state(node, view)
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
        assert list(clone.state(grown).residual) == list(views[grown].residual)
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
