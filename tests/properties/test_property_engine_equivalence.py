"""Property test: the engine's scan is equivalent to the seed per-node scan.

``engine.query`` must return *identical* result sets, identical
``QueryStatistics`` counters and a bit-identical written-back index to the
per-node reference scan in ``tests/reference.py`` (the seed's Algorithm 4
loop) — and must agree with the brute-force oracle
``brute_force_reverse_topk`` up to numerical ties — across random graphs,
both ``update_index`` modes, and the extreme depths ``k = 1`` and ``k = K``
(the index capacity).
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import scipy.sparse as sp

from repro.core import (
    IndexParams,
    ReverseTopKEngine,
    brute_force_reverse_topk,
    build_index,
)
from repro.core.statestore import STATE_ARRAY_NAMES
from repro.graph import DiGraph, transition_matrix

from tests.reference import SCAN_COUNTERS, reference_scan


@st.composite
def engine_cases(draw):
    """A random small graph plus query node, update mode, and hub budget."""
    n = draw(st.integers(min_value=4, max_value=16))
    density = draw(st.floats(min_value=0.15, max_value=0.5))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    if not mask.any():
        mask[0, 1] = True
    graph = DiGraph(sp.csr_matrix(mask.astype(float)))
    query = draw(st.integers(min_value=0, max_value=n - 1))
    hub_budget = draw(st.integers(min_value=0, max_value=3))
    update_index = draw(st.booleans())
    return graph, query, hub_budget, update_index


class TestEngineEquivalence:
    @given(engine_cases())
    @settings(max_examples=25, deadline=None)
    def test_vectorized_scan_matches_scalar_scan(self, case):
        graph, query, hub_budget, update_index = case
        matrix = transition_matrix(graph)
        params = IndexParams(
            capacity=min(8, graph.n_nodes), hub_budget=hub_budget
        ).for_graph(graph.n_nodes)
        reference = build_index(graph, params, transition=matrix)

        for k in (1, params.capacity):
            vectorized = ReverseTopKEngine(matrix, copy.deepcopy(reference))
            scalar = ReverseTopKEngine(matrix, copy.deepcopy(reference))
            result_vec = vectorized.query(query, k, update_index=update_index)
            nodes_sca, counters_sca = reference_scan(
                scalar, query, k, update_index=update_index
            )
            np.testing.assert_array_equal(result_vec.nodes, nodes_sca)
            for counter in SCAN_COUNTERS:
                assert getattr(result_vec.statistics, counter) == (
                    counters_sca[counter]
                ), counter
            # Update-mode refinements must leave bit-identical index state.
            np.testing.assert_array_equal(
                vectorized.index.columns.lower,
                scalar.index.columns.lower,
            )
            np.testing.assert_array_equal(
                vectorized.index.columns.residual_mass,
                scalar.index.columns.residual_mass,
            )
            np.testing.assert_array_equal(
                vectorized.index.columns.is_exact, scalar.index.columns.is_exact
            )
            assert vectorized.index.version == scalar.index.version
            for shard, twin in zip(vectorized.index.shards, scalar.index.shards):
                for name in STATE_ARRAY_NAMES:
                    np.testing.assert_array_equal(
                        shard.store.to_arrays()[name],
                        twin.store.to_arrays()[name],
                        name,
                    )

    @given(engine_cases())
    @settings(max_examples=15, deadline=None)
    def test_vectorized_scan_matches_brute_force(self, case):
        graph, query, hub_budget, update_index = case
        matrix = transition_matrix(graph)
        params = IndexParams(
            capacity=min(8, graph.n_nodes), hub_budget=hub_budget, rounding_threshold=0.0
        ).for_graph(graph.n_nodes)
        engine = ReverseTopKEngine.build(graph, params, transition=matrix)

        from repro.rwr import ProximityLU

        exact = ProximityLU(matrix).matrix()
        for k in (1, params.capacity):
            result = engine.query(query, k, update_index=update_index)
            oracle = brute_force_reverse_topk(matrix, query, k)
            # Disagreements are only permitted on numerically tied nodes.
            for node in {int(v) for v in result.nodes} ^ {int(v) for v in oracle}:
                column = exact[:, node]
                kth = np.sort(column)[-k]
                assert abs(column[query] - kth) <= 1e-8, (
                    f"node {node} disagrees without a tie (k={k})"
                )
