"""Tests for Algorithm 4 — the online reverse top-k query engine."""

import copy

import numpy as np
import pytest

from repro.core import IndexParams, QueryParams, ReverseTopKEngine
from repro.exceptions import InvalidParameterError, QueryError
from repro.graph import transition_matrix, trust_graph

from tests.reference import SCAN_COUNTERS, index_states, reference_scan


@pytest.fixture(scope="module")
def engine(small_transition, small_index):
    """A fresh engine per test module, backed by a private copy of the index."""
    return ReverseTopKEngine(small_transition, copy.deepcopy(small_index))


class TestQueryCorrectness:
    @pytest.mark.parametrize("k", [1, 3, 5, 10])
    def test_matches_exact_answer(
        self, small_transition, small_index, small_exact_matrix, reverse_topk_checker, k
    ):
        engine = ReverseTopKEngine(small_transition, copy.deepcopy(small_index))
        for query in (0, 7, 19, 42, 55):
            result = engine.query(query, k)
            reverse_topk_checker(result.nodes, small_exact_matrix, query, k)

    def test_matches_brute_force_without_rounding(self, small_web_graph, small_transition,
                                                  small_exact_matrix, reverse_topk_checker):
        params = IndexParams(capacity=12, hub_budget=4, rounding_threshold=0.0)
        engine = ReverseTopKEngine.build(small_web_graph, params, transition=small_transition)
        for query in (2, 13, 31):
            result = engine.query(query, 6)
            reverse_topk_checker(result.nodes, small_exact_matrix, query, 6)

    def test_no_update_mode_matches_update_mode(self, small_transition, small_index):
        updated = ReverseTopKEngine(small_transition, copy.deepcopy(small_index))
        pristine = ReverseTopKEngine(small_transition, copy.deepcopy(small_index))
        for query in (1, 8, 27):
            with_update = updated.query(query, 5, update_index=True)
            without_update = pristine.query(query, 5, update_index=False)
            assert set(with_update.nodes.tolist()) == set(without_update.nodes.tolist())

    def test_denser_graph(self, small_trust_graph, reverse_topk_checker):
        from repro.rwr import ProximityLU

        matrix = transition_matrix(small_trust_graph)
        exact = ProximityLU(matrix).matrix()
        params = IndexParams(capacity=12, hub_budget=5)
        engine = ReverseTopKEngine.build(small_trust_graph, params, transition=matrix)
        for query in (0, 10, 33, 60):
            result = engine.query(query, 4)
            reverse_topk_checker(result.nodes, exact, query, 4)

    def test_without_hubs(self, small_web_graph, small_transition, small_exact_matrix,
                          reverse_topk_checker):
        params = IndexParams(capacity=10, hub_budget=0)
        engine = ReverseTopKEngine.build(small_web_graph, params, transition=small_transition)
        result = engine.query(9, 5)
        reverse_topk_checker(result.nodes, small_exact_matrix, 9, 5)

    def test_result_contains_high_in_degree_targets(self, small_web_graph, engine):
        # The highest in-degree node collects many top-k contributions; querying
        # it must return a result set larger than k/2 on a web-like graph.
        hub = int(np.argmax(small_web_graph.in_degree))
        result = engine.query(hub, 10)
        assert len(result.nodes) >= 5

    def test_query_node_usually_in_own_result(self, engine):
        # A node's own proximity to itself is at least alpha, which almost
        # always places it inside its own top-10.
        result = engine.query(12, 10)
        assert 12 in result


class TestQueryResultObject:
    def test_ranked_is_sorted_by_proximity(self, engine):
        result = engine.query(4, 8)
        ranked = result.ranked()
        values = [value for _, value in ranked]
        assert values == sorted(values, reverse=True)

    def test_contains_and_len(self, engine):
        result = engine.query(4, 8)
        assert len(result) == result.nodes.size
        if len(result):
            assert int(result.nodes[0]) in result

    def test_proximities_vector_full_length(self, engine, small_transition):
        result = engine.query(2, 3)
        assert result.proximities_to_query.shape == (small_transition.shape[0],)


class TestQueryStatistics:
    def test_counts_are_consistent(self, engine, small_transition):
        result = engine.query(6, 5)
        stats = result.statistics
        n = small_transition.shape[0]
        assert stats.n_results == len(result.nodes)
        assert stats.n_candidates + stats.n_exact_shortcut + stats.n_pruned_immediately <= n
        assert stats.n_hits <= stats.n_candidates
        assert stats.n_refined_nodes <= stats.n_candidates
        assert stats.seconds > 0.0

    def test_stage_timings_present(self, engine):
        stats = engine.query(3, 5).statistics
        assert "pmpn" in stats.stage_seconds
        assert "scan" in stats.stage_seconds

    def test_pmpn_iterations_positive(self, engine):
        assert engine.query(3, 5).statistics.pmpn_iterations > 0

    def test_candidates_order_of_k(self, engine, small_transition):
        # Figure 6's observation: candidates ~ O(k), far below n.
        n = small_transition.shape[0]
        stats = engine.query(17, 5).statistics
        assert stats.n_candidates < n / 2


class TestIndexUpdatePolicy:
    def test_update_persists_refinements(self, small_transition, small_index):
        index = copy.deepcopy(small_index)
        engine = ReverseTopKEngine(small_transition, index)
        before = [state.iterations for _, state in index_states(index)]
        engine.query(0, 10, update_index=True)
        after = [state.iterations for _, state in index_states(index)]
        assert sum(after) >= sum(before)

    def test_no_update_leaves_index_untouched(self, small_transition, small_index):
        index = copy.deepcopy(small_index)
        engine = ReverseTopKEngine(small_transition, index)
        before_bounds = index.columns.lower.copy()
        before_iterations = [state.iterations for _, state in index_states(index)]
        engine.query(0, 10, update_index=False)
        np.testing.assert_array_equal(index.columns.lower, before_bounds)
        assert [state.iterations for _, state in index_states(index)] == before_iterations

    def test_updated_index_reduces_later_refinement(self, small_transition, small_index):
        index = copy.deepcopy(small_index)
        engine = ReverseTopKEngine(small_transition, index)
        first = engine.query(5, 10, update_index=True).statistics.n_refinement_iterations
        second = engine.query(5, 10, update_index=True).statistics.n_refinement_iterations
        assert second <= first


class TestScanModes:
    _COUNTERS = (
        "n_results",
        "n_candidates",
        "n_hits",
        "n_exact_shortcut",
        "n_pruned_immediately",
        "n_refinement_iterations",
        "n_refined_nodes",
        "n_exact_fallbacks",
        "pmpn_iterations",
    )

    @pytest.mark.parametrize("update_index", [True, False])
    def test_vectorized_matches_scalar(self, small_transition, small_index, update_index):
        # The columnar scan against the per-node reference scan in tests/.
        vectorized = ReverseTopKEngine(small_transition, copy.deepcopy(small_index))
        scalar = ReverseTopKEngine(small_transition, copy.deepcopy(small_index))
        for query in (0, 7, 23, 42):
            a = vectorized.query(query, 8, update_index=update_index)
            nodes, counters = reference_scan(
                scalar, query, 8, update_index=update_index
            )
            np.testing.assert_array_equal(a.nodes, nodes)
            for counter in SCAN_COUNTERS:
                assert getattr(a.statistics, counter) == counters[counter], counter

    def test_vectorized_reports_refine_stage(self, small_transition, small_index):
        engine = ReverseTopKEngine(small_transition, copy.deepcopy(small_index))
        stats = engine.query(3, 5).statistics
        assert "refine" in stats.stage_seconds

    def test_invalid_scan_mode_rejected(self, engine):
        # There is one scan: no entry point takes a scan mode any more.
        for call in (engine.query, engine.query_many, engine.query_many_readonly):
            target = 0 if call is engine.query else [0]
            with pytest.raises(TypeError, match="scan_mode"):
                call(target, 3, scan_mode="vectorized")

    def test_query_many_scan_modes_agree(self, small_transition, small_index):
        vectorized = ReverseTopKEngine(small_transition, copy.deepcopy(small_index))
        scalar = ReverseTopKEngine(small_transition, copy.deepcopy(small_index))
        for query, a in zip([0, 5, 9], vectorized.query_many([0, 5, 9], k=4)):
            nodes, _ = reference_scan(scalar, query, 4)
            np.testing.assert_array_equal(a.nodes, nodes)


class TestQueryValidation:
    def test_k_exceeding_capacity_rejected(self, engine, small_params):
        with pytest.raises(InvalidParameterError):
            engine.query(0, small_params.capacity + 1)

    def test_invalid_query_node_rejected(self, engine):
        with pytest.raises(InvalidParameterError):
            engine.query(10_000, 5)

    def test_mismatched_index_rejected(self, small_index):
        other = transition_matrix(trust_graph(30, seed=2))
        with pytest.raises(QueryError):
            ReverseTopKEngine(other, copy.deepcopy(small_index))

    def test_query_params_override(self, engine):
        result = engine.query(0, 3, params=QueryParams(k=5, update_index=False))
        assert result.k == 5

    @pytest.mark.parametrize("bad", [3.7, True, 3.0, "3", None])
    def test_batched_entry_points_reject_what_query_rejects(self, engine, bad):
        # The raw id is validated: coercing first would answer node 3 for
        # 3.7 and node 1 for True.
        with pytest.raises(InvalidParameterError):
            engine.query(bad, 2)
        with pytest.raises(InvalidParameterError):
            engine.query_many([bad], 2)
        with pytest.raises(InvalidParameterError):
            engine.query_many_readonly([0, bad], 2)

    def test_batched_entry_points_accept_numpy_integers(self, engine):
        ids = np.array([3, 5], dtype=np.int64)
        results = engine.query_many_readonly(list(ids), 2)
        assert [r.query for r in results] == [3, 5]
        assert all(type(r.query) is int for r in results)

    def test_query_many_returns_per_query_results(self, engine):
        results = engine.query_many([0, 1, 2], k=4)
        assert len(results) == 3
        assert all(r.k == 4 for r in results)
