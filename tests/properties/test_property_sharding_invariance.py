"""Property test: the shard count and backing change nothing observable.

The index is global hub data plus ``P ≥ 1`` contiguous node-range shards,
each in RAM or memory-mapped over the on-disk layout.  For random small
graphs — weighted and unweighted — every ``P`` in ``{1, 2, 3, n}`` (a larger
request clamps to ``n``) and both backings must be bitwise equal to the
one-shard in-RAM index:

* the built planes (lower bounds, residual masses, exactness, every node's
  flat state segments, the hub matrix);
* every answer of a query stream, its proximities and every
  :class:`QueryStatistics` counter — with or without write-back — and,
  after the stream, the written-back states, the planes and the version;

and the answers still agree with :func:`brute_force_reverse_topk` wherever
membership is not a numerical tie.  A maintained index at each ``P`` equals
a fresh build at that ``P``: see
``test_property_dynamic_equivalence.py``.
"""

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
from repro.graph import DiGraph, transition_matrix, weighted_transition_matrix
from repro.rwr import ProximityLU

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
def invariance_cases(draw):
    """Random graph, shard count, backing and query stream."""
    n = draw(st.integers(min_value=4, max_value=14))
    density = draw(st.floats(min_value=0.15, max_value=0.5))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    weighted = draw(st.booleans())
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    if not mask.any():
        mask[0, 1] = True
    weights = rng.integers(1, 5, size=(n, n)).astype(float) if weighted else 1.0
    graph = DiGraph(sp.csr_matrix(np.where(mask, weights, 0.0)))
    n_shards = draw(st.sampled_from([1, 2, 3, n, n + 2]))  # n + 2 clamps to n
    memmap = draw(st.booleans())
    hub_budget = draw(st.integers(min_value=0, max_value=2))
    capacity = min(6, n)
    queries = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=1, max_value=capacity),
            ),
            min_size=1,
            max_size=8,
        )
    )
    update_index = draw(st.booleans())
    return graph, weighted, n_shards, memmap, hub_budget, capacity, queries, update_index


def _build(case, directory=None, *, n_shards=1):
    """The case's index; memory-mapped over ``directory`` when the case says so."""
    graph, weighted, _, memmap, hub_budget, capacity, _, _ = case
    matrix = (weighted_transition_matrix if weighted else transition_matrix)(graph)
    params = IndexParams(capacity=capacity, hub_budget=hub_budget)
    options = (
        {"directory": directory, "memory_budget": 0}
        if memmap and directory is not None
        else {}
    )
    index = build_index(graph, params, transition=matrix, n_shards=n_shards, **options)
    return matrix, index


def assert_same_index(index, reference):
    """Bitwise equality of everything an index holds."""
    assert index.version == reference.version
    assert index.hubs.nodes == reference.hubs.nodes
    np.testing.assert_array_equal(index.hub_deficit, reference.hub_deficit)
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(
            getattr(index.hub_matrix, name), getattr(reference.hub_matrix, name)
        )
    for name in ("lower", "residual_mass", "is_exact"):
        np.testing.assert_array_equal(
            getattr(index.columns, name), getattr(reference.columns, name), name
        )
    for node in range(reference.n_nodes):
        a, b = index.state_arrays(node), reference.state_arrays(node)
        for plane in ("residual", "retained", "hub_ink"):
            for x, y in zip(getattr(a, plane), getattr(b, plane)):
                assert x.tobytes() == y.tobytes(), (node, plane)
        assert a.lower_bounds.tobytes() == b.lower_bounds.tobytes(), node
        assert (a.iterations, a.is_hub) == (b.iterations, b.is_hub), node


def assert_same_result(actual, expected):
    np.testing.assert_array_equal(actual.nodes, expected.nodes)
    np.testing.assert_array_equal(
        actual.proximities_to_query, expected.proximities_to_query
    )
    for field in COUNTER_FIELDS:
        assert getattr(actual.statistics, field) == getattr(
            expected.statistics, field
        ), field


class TestShardingInvariance:
    @given(case=invariance_cases())
    @settings(max_examples=40, deadline=None)
    def test_every_partitioning_equals_one_shard(self, case, tmp_path_factory):
        graph, _, n_shards, memmap, _, _, queries, update_index = case
        directory = tmp_path_factory.mktemp("layout")
        matrix, one = _build(case)
        _, many = _build(case, directory, n_shards=n_shards)
        assert many.n_shards == min(n_shards, graph.n_nodes)
        backings = {shard.backing for shard in many.shards}
        assert backings == ({"memmap"} if memmap else {"ram"})
        assert_same_index(many, one)

        reference = ReverseTopKEngine(matrix, one)
        engine = ReverseTopKEngine(matrix, many)
        exact = ProximityLU(matrix).matrix()
        for query, k in queries:
            expected = reference.query(query, k, update_index=update_index)
            actual = engine.query(query, k, update_index=update_index)
            assert_same_result(actual, expected)
            # ... and both are the exact answer, up to numerical ties.
            oracle = brute_force_reverse_topk(matrix, query, k)
            for node in {int(v) for v in actual.nodes} ^ {int(v) for v in oracle}:
                column = exact[:, node]
                assert abs(column[query] - np.sort(column)[-k]) <= 1e-8, (node, k)
        # Write-backs landed identically: states, planes and the version.
        assert_same_index(many, one)
