"""Property test: the serving pipeline never changes an answer.

For random small graphs and random request streams (duplicates encouraged so
cache hits, in-flight dedup and batching all fire), every result the
:class:`ReverseTopKService` returns — cached, deduplicated, batched, or
fanned across thread workers — must be bit-identical (result nodes *and*
proximity vectors) to evaluating the same ``(query, k)`` directly with
``engine.query(update_index=False)``.  And persisting a refinement through
the index must invalidate prior cache entries (the version key).
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import scipy.sparse as sp

from repro.core import IndexParams, ReverseTopKEngine, build_index
from repro.graph import DiGraph, transition_matrix
from repro.serving import ReverseTopKService, ServiceConfig


@st.composite
def service_cases(draw):
    """A random small graph plus a duplicate-heavy request stream."""
    n = draw(st.integers(min_value=4, max_value=14))
    density = draw(st.floats(min_value=0.15, max_value=0.5))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    if not mask.any():
        mask[0, 1] = True
    graph = DiGraph(sp.csr_matrix(mask.astype(float)))
    capacity = min(6, n)
    # Few distinct queries + many requests => plenty of repeats.
    pool = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=3
        )
    )
    requests = draw(
        st.lists(
            st.tuples(
                st.sampled_from(pool), st.integers(min_value=1, max_value=capacity)
            ),
            min_size=1,
            max_size=10,
        )
    )
    n_workers = draw(st.sampled_from([0, 2]))
    cache_capacity = draw(st.sampled_from([0, 64]))
    return graph, capacity, requests, n_workers, cache_capacity


class TestServiceEquivalence:
    @given(service_cases())
    @settings(max_examples=25, deadline=None)
    def test_served_answers_bit_identical_to_direct_queries(self, case):
        graph, capacity, requests, n_workers, cache_capacity = case
        matrix = transition_matrix(graph)
        params = IndexParams(capacity=capacity, hub_budget=1).for_graph(graph.n_nodes)
        index = build_index(graph, params, transition=matrix)
        engine = ReverseTopKEngine(matrix, index)
        config = ServiceConfig(
            cache_capacity=cache_capacity,
            max_batch_size=3,
            n_workers=n_workers,
        )
        with ReverseTopKService(engine, config) as service:
            served = service.serve(requests)
            # Serve twice: the second pass exercises the cache-hit path.
            served_again = service.serve(requests)
        for (query, k), first, second in zip(requests, served, served_again):
            direct = engine.query(query, k, update_index=False)
            for result in (first, second):
                np.testing.assert_array_equal(result.nodes, direct.nodes)
                np.testing.assert_array_equal(
                    result.proximities_to_query, direct.proximities_to_query
                )
                assert result.query == query and result.k == k

    @given(service_cases())
    @settings(max_examples=10, deadline=None)
    def test_index_mutation_invalidates_cache_entries(self, case):
        graph, capacity, requests, _, _ = case
        matrix = transition_matrix(graph)
        params = IndexParams(capacity=capacity, hub_budget=1).for_graph(graph.n_nodes)
        index = build_index(graph, params, transition=matrix)
        engine = ReverseTopKEngine(matrix, index)
        with ReverseTopKService(engine, ServiceConfig(cache_capacity=64)) as service:
            service.serve(requests)
            computed_before = service.metrics().n_engine_queries
            # An update-mode pass over every node guarantees at least one
            # persisted refinement on a fresh index unless it is already
            # fully exact; force a bump in that case to model any write-back.
            for query in range(graph.n_nodes):
                service.refine(query, capacity)
            if engine.index.version == 0:
                engine.index.set_state(0, engine.index.state_arrays(0))
            service.serve(requests)
            metrics = service.metrics()
        # Every unique request was recomputed after the version bump: the
        # engine-query counter grew by the number of unique (query, k) pairs.
        unique = len({(int(q), int(k)) for q, k in requests})
        assert metrics.n_engine_queries == computed_before + unique
