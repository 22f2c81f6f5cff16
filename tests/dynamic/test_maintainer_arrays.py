"""Maintainer targeted path over columnar stores.

The index keeps its node state in struct-of-arrays form (one store per
shard); the maintainer detects invalidation and hub-proximity hits with
vectorised segment scans and applies the delta via ``apply_updates`` — no
per-node materialisation.  The contract, against one oracle: the maintained
index is **bit-identical** (columns and every state array) to a from-scratch
build at the same shard count on the post-churn graph under the pinned hubs,
and a three-shard index to a one-shard one.
"""

import numpy as np
import pytest

from repro.core import IndexParams
from repro.core.query import ReverseTopKEngine
from repro.core.sharding import build_index
from repro.core.statestore import STATE_ARRAY_NAMES
from repro.dynamic.maintainer import IndexMaintainer
from repro.graph.builder import from_edges
from repro.graph.datasets import load_dataset
from repro.graph.transition import transition_matrix

PARAMS = IndexParams(capacity=8, hub_budget=6)


@pytest.fixture(scope="module")
def base_graph():
    return load_dataset("web-stanford-cs", scale=0.12)


def mutate(graph, seed, *, from_hub=None):
    """Drop/add a few edges; returns (new_graph, touched_sources)."""
    n = graph.n_nodes
    edges = [(int(s), int(t), float(w)) for s, t, w in graph.edges()]
    rng = np.random.default_rng(seed)
    drop = set(rng.choice(len(edges), size=4, replace=False).tolist())
    kept = [edge for index, edge in enumerate(edges) if index not in drop]
    touched = {edges[index][0] for index in drop}
    for _ in range(4):
        source, target = int(rng.integers(n)), int(rng.integers(n))
        if source != target:
            kept.append((source, target, 1.0))
            touched.add(source)
    if from_hub is not None:
        # An out-edge FROM a hub changes the hub's own transition column,
        # forcing the hub-proximity rematerialisation branch.
        target = int(rng.integers(n))
        if target != from_hub:
            kept.append((from_hub, target, 1.0))
            touched.add(from_hub)
    return from_edges(kept, n_nodes=n), touched


def engines_for(graph):
    """(one-shard engine, three-shard engine) over the same graph."""
    matrix = transition_matrix(graph)
    params = PARAMS.for_graph(graph.n_nodes)
    return tuple(
        ReverseTopKEngine(
            matrix, build_index(graph, params, transition=matrix, n_shards=n_shards)
        )
        for n_shards in (1, 3)
    )


def assert_equals_fresh_build(maintained, graph):
    """Maintained == build_index from scratch under the maintained hub set."""
    fresh = build_index(
        graph, maintained.params, hubs=maintained.hubs, n_shards=maintained.n_shards
    )
    for column in ("lower", "residual_mass", "is_exact"):
        np.testing.assert_array_equal(
            getattr(maintained.columns, column), getattr(fresh.columns, column)
        )
    for shard, twin in zip(maintained.shards, fresh.shards):
        kept, rebuilt = shard.store.to_arrays(), twin.store.to_arrays()
        for name in STATE_ARRAY_NAMES:
            np.testing.assert_array_equal(kept[name], rebuilt[name], name)


def assert_sharded_matches(sharded_index, one_shard_index):
    for shard in sharded_index.shards:
        np.testing.assert_array_equal(
            np.asarray(shard.columns.lower),
            one_shard_index.columns.lower[:, shard.start : shard.stop],
        )


class TestTargetedPath:
    def test_maintained_matches_fresh_build_and_sharded(self, base_graph):
        new_graph, touched = mutate(base_graph, seed=42)
        eng_mono, eng_sharded = engines_for(base_graph)

        report = IndexMaintainer(eng_mono, rebuild_ratio=1.0).apply(
            new_graph, touched
        )
        report_sharded = IndexMaintainer(eng_sharded, rebuild_ratio=1.0).apply(
            new_graph, touched
        )

        assert not report.full_rebuild and report.n_invalidated > 0
        assert report_sharded.n_invalidated == report.n_invalidated
        assert report_sharded.n_rematerialized == report.n_rematerialized
        assert_equals_fresh_build(eng_mono.index, new_graph)
        assert_equals_fresh_build(eng_sharded.index, new_graph)
        assert_sharded_matches(eng_sharded.index, eng_mono.index)

    def test_query_parity_after_maintenance(self, base_graph):
        new_graph, touched = mutate(base_graph, seed=7)
        eng_mono, eng_sharded = engines_for(base_graph)
        IndexMaintainer(eng_mono, rebuild_ratio=1.0).apply(new_graph, touched)
        IndexMaintainer(eng_sharded, rebuild_ratio=1.0).apply(new_graph, touched)
        rng = np.random.default_rng(3)
        for query in rng.choice(base_graph.n_nodes, size=6, replace=False).tolist():
            mono = eng_mono.query(int(query), 3, update_index=False)
            sharded = eng_sharded.query(int(query), 3, update_index=False)
            np.testing.assert_array_equal(
                np.asarray(mono.nodes), np.asarray(sharded.nodes)
            )

    def test_hub_out_edge_triggers_rematerialisation(self, base_graph):
        eng_mono, eng_sharded = engines_for(base_graph)
        hub = int(eng_mono.index.hubs.nodes[0])
        new_graph, touched = mutate(base_graph, seed=11, from_hub=hub)
        report = IndexMaintainer(eng_mono, rebuild_ratio=1.0).apply(
            new_graph, touched
        )
        report_sharded = IndexMaintainer(eng_sharded, rebuild_ratio=1.0).apply(
            new_graph, touched
        )
        assert report.n_rematerialized > 0
        assert report_sharded.n_rematerialized == report.n_rematerialized
        assert_equals_fresh_build(eng_mono.index, new_graph)
        assert_sharded_matches(eng_sharded.index, eng_mono.index)

    def test_second_round_with_overlays_present(self, base_graph):
        graph_one, touched_one = mutate(base_graph, seed=42)
        engines = engines_for(base_graph)
        for engine in engines:
            IndexMaintainer(engine, rebuild_ratio=1.0).apply(graph_one, touched_one)
        assert engines[0].index.shards[0].store.overlay
        graph_two, touched_two = mutate(graph_one, seed=99)
        reports = [
            IndexMaintainer(engine, rebuild_ratio=1.0).apply(graph_two, touched_two)
            for engine in engines
        ]
        assert len({report.n_invalidated for report in reports}) == 1
        assert_equals_fresh_build(engines[0].index, graph_two)
        assert_sharded_matches(engines[1].index, engines[0].index)
