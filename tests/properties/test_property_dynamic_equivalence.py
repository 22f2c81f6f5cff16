"""Property test: delta maintenance never diverges from a from-scratch build.

For random small graphs — weighted (under the weighted walk) and unweighted
— at every shard count ``P`` in ``{1, 2, 3, n}``, and random sequences of
update batches (insertions, deletions, weight changes — applied through the
full ``apply_batch()`` → ``IndexMaintainer.apply()`` pipeline), the
maintained engine must stay **bit-identical** to an engine rebuilt from
scratch at the same ``P`` on the final graph under the maintained hub set:
per-node BCA
states, the columnar views, and every reverse top-k answer including its
statistics counters.  Whether any given sequence rides the incremental path, re-materializes hub
expansions, or trips the full-rebuild escape hatch is irrelevant — the
invariant holds across all of them, which is exactly why the escape
hatches are safe.

A second property covers the serving layer: answers served through the
dynamic façade (cache + batching) across updates match direct queries on a
fresh engine, and effective updates retire cached answers.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import scipy.sparse as sp

from repro.core import IndexParams, ReverseTopKEngine, build_index
from repro.dynamic import (
    DynamicReverseTopKService,
    GraphUpdate,
    IndexMaintainer,
    apply_batch,
)
from repro.graph import DiGraph, transition_matrix, weighted_transition_matrix
from repro.serving import ServiceConfig

from tests.reference import assert_same_state, index_states

#: Counter fields of QueryStatistics that must match bit-for-bit (timings
#: excluded — they are wall-clock measurements, not answers).
COUNTER_FIELDS = (
    "n_results",
    "n_candidates",
    "n_hits",
    "n_exact_shortcut",
    "n_pruned_immediately",
    "n_refinement_iterations",
    "n_refined_nodes",
    "pmpn_iterations",
    "n_exact_fallbacks",
)


@st.composite
def dynamic_cases(draw):
    """A random small graph plus a random valid update-batch sequence."""
    n = draw(st.integers(min_value=4, max_value=12))
    density = draw(st.floats(min_value=0.15, max_value=0.45))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    if not mask.any():
        mask[0, 1] = True
    weighted = draw(st.booleans())
    weights = rng.integers(1, 5, size=(n, n)).astype(float) if weighted else 1.0
    graph = DiGraph(sp.csr_matrix(np.where(mask, weights, 0.0)))
    n_shards = draw(st.sampled_from([1, 2, 3, n]))
    capacity = min(5, n)
    hub_budget = draw(st.integers(min_value=0, max_value=2))
    rebuild_ratio = draw(st.sampled_from([0.05, 0.5, 1.0]))
    n_batches = draw(st.integers(min_value=1, max_value=3))
    batch_sizes = draw(
        st.lists(
            st.integers(min_value=1, max_value=4),
            min_size=n_batches,
            max_size=n_batches,
        )
    )
    op_seed = draw(st.integers(min_value=0, max_value=10_000))
    return (
        graph, weighted, n_shards, capacity, hub_budget,
        rebuild_ratio, batch_sizes, op_seed,
    )


def walk(weighted: bool):
    """The transition builder of the walk variant (§5.4's weighted one or not)."""
    return weighted_transition_matrix if weighted else transition_matrix


def random_batch(graph: DiGraph, rng, size: int):
    """Up to ``size`` random mutations, valid in order on ``graph``."""
    n = graph.n_nodes
    edges = {(u, v) for u, v, _ in graph.edges()}
    updates = []
    for _ in range(size * 8):
        if len(updates) >= size:
            break
        roll = rng.random()
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if roll < 0.45:
            if u != v and (u, v) not in edges:
                updates.append(GraphUpdate.add(u, v, float(rng.uniform(0.5, 2.0))))
                edges.add((u, v))
        elif roll < 0.8:
            if (u, v) in edges and len(edges) > 1:
                updates.append(GraphUpdate.remove(u, v))
                edges.discard((u, v))
        else:
            if (u, v) in edges:
                updates.append(
                    GraphUpdate.set_weight(u, v, float(rng.uniform(0.5, 2.0)))
                )
    return updates


class TestDynamicEquivalence:
    @given(dynamic_cases())
    @settings(max_examples=30, deadline=None)
    def test_maintained_index_bit_identical_to_scratch_build(self, case):
        (
            graph, weighted, n_shards, capacity, hub_budget,
            rebuild_ratio, batch_sizes, op_seed,
        ) = case
        params = IndexParams(capacity=capacity, hub_budget=hub_budget).for_graph(
            graph.n_nodes
        )
        matrix = walk(weighted)(graph)
        engine = ReverseTopKEngine(
            matrix, build_index(graph, params, transition=matrix, n_shards=n_shards)
        )
        maintainer = IndexMaintainer(
            engine, rebuild_ratio=rebuild_ratio, weighted=weighted
        )
        current = graph
        rng = np.random.default_rng(op_seed)
        for size in batch_sizes:
            current, touched = apply_batch(current, random_batch(current, rng, size))
            maintainer.apply(current, touched)

        # The equivalence target: a from-scratch build at the same shard
        # count under the maintained hub set.
        final_matrix = walk(weighted)(current)
        fresh = ReverseTopKEngine(
            final_matrix,
            build_index(
                current,
                params,
                hubs=engine.index.hubs,
                transition=final_matrix,
                n_shards=n_shards,
            ),
        )
        assert engine.index.n_shards == fresh.index.n_shards

        # 1. state-level bit identity
        assert engine.index.hubs.nodes == fresh.index.hubs.nodes
        for (_, kept), (_, rebuilt) in zip(
            index_states(engine.index), index_states(fresh.index)
        ):
            assert_same_state(kept, rebuilt)

        # 2. columnar-view bit identity
        np.testing.assert_array_equal(
            engine.index.columns.lower, fresh.index.columns.lower
        )
        np.testing.assert_array_equal(
            engine.index.columns.residual_mass,
            fresh.index.columns.residual_mass,
        )
        np.testing.assert_array_equal(
            engine.index.columns.is_exact, fresh.index.columns.is_exact
        )

        # 3. every answer and its statistics counters, at every depth probed
        k = int(np.random.default_rng(op_seed + 1).integers(1, capacity + 1))
        for query in range(graph.n_nodes):
            maintained = engine.query(query, k, update_index=False)
            scratch = fresh.query(query, k, update_index=False)
            np.testing.assert_array_equal(maintained.nodes, scratch.nodes)
            np.testing.assert_array_equal(
                maintained.proximities_to_query, scratch.proximities_to_query
            )
            for field in COUNTER_FIELDS:
                assert getattr(maintained.statistics, field) == getattr(
                    scratch.statistics, field
                ), (query, field)

    @given(dynamic_cases())
    @settings(max_examples=15, deadline=None)
    def test_served_answers_track_updates(self, case):
        (
            graph, weighted, n_shards, capacity, hub_budget,
            rebuild_ratio, batch_sizes, op_seed,
        ) = case
        params = IndexParams(capacity=capacity, hub_budget=hub_budget).for_graph(
            graph.n_nodes
        )
        matrix = walk(weighted)(graph)
        engine = ReverseTopKEngine(
            matrix, build_index(graph, params, transition=matrix, n_shards=n_shards)
        )
        maintainer = IndexMaintainer(
            engine, rebuild_ratio=rebuild_ratio, weighted=weighted
        )
        config = ServiceConfig(cache_capacity=64, max_batch_size=4, n_workers=0)
        rng = np.random.default_rng(op_seed)
        requests = [
            (int(q), int(k))
            for q, k in zip(
                rng.integers(0, graph.n_nodes, size=6),
                rng.integers(1, capacity + 1, size=6),
            )
        ]
        with DynamicReverseTopKService(
            engine, config, graph=graph, maintainer=maintainer
        ) as service:
            service.serve(requests)  # populate the cache pre-update
            for size in batch_sizes:
                # Generate the batch against the current graph, then push
                # it through the real update path.
                updates = random_batch(service.graph, rng, size)
                if updates:
                    service.apply_updates(updates)
            served = service.serve(requests)
            final_matrix = walk(weighted)(service.graph)
            reference = ReverseTopKEngine(
                final_matrix,
                build_index(
                    service.graph,
                    params,
                    hubs=service.engine.index.hubs,
                    transition=final_matrix,
                ),
            )
            for (query, k), result in zip(requests, served):
                direct = reference.query(query, k, update_index=False)
                np.testing.assert_array_equal(result.nodes, direct.nodes)
                np.testing.assert_array_equal(
                    result.proximities_to_query, direct.proximities_to_query
                )
