"""Tests for IndexParams/QueryParams and hub selection."""

import numpy as np
import pytest

from repro.core import IndexParams, QueryParams
from repro.core.hubs import HubSet, select_hubs_by_degree
from repro.exceptions import InvalidParameterError
from repro.graph import star_graph, transition_matrix


class TestIndexParams:
    def test_paper_defaults(self):
        params = IndexParams()
        assert params.alpha == 0.15
        assert params.capacity == 200
        assert params.propagation_threshold == 1e-4
        assert params.residue_threshold == 0.1
        assert params.rounding_threshold == 1e-6

    def test_rejects_invalid_alpha(self):
        with pytest.raises((InvalidParameterError, ValueError)):
            IndexParams(alpha=1.5)

    def test_rejects_negative_hub_budget(self):
        with pytest.raises(ValueError):
            IndexParams(hub_budget=-1)

    def test_rejects_zero_capacity(self):
        with pytest.raises((InvalidParameterError, ValueError)):
            IndexParams(capacity=0)

    def test_for_graph_clamps_capacity(self):
        params = IndexParams(capacity=200, hub_budget=50).for_graph(20)
        assert params.capacity == 20
        assert params.hub_budget <= 10

    def test_for_graph_noop_when_small_enough(self):
        params = IndexParams(capacity=5, hub_budget=2)
        assert params.for_graph(100) is params

    def test_frozen(self):
        with pytest.raises(AttributeError):
            IndexParams().alpha = 0.3  # type: ignore[misc]


class TestQueryParams:
    def test_defaults(self):
        params = QueryParams()
        assert params.k == 10
        assert params.update_index is True

    def test_rejects_bad_k(self):
        with pytest.raises((InvalidParameterError, ValueError)):
            QueryParams(k=0)

    def test_rejects_bad_tolerance(self):
        with pytest.raises((InvalidParameterError, ValueError)):
            QueryParams(tolerance=-1.0)


class TestHubSet:
    def test_from_iterable_dedupes_and_sorts(self):
        hubs = HubSet.from_iterable([5, 1, 5, 3])
        assert hubs.nodes == (1, 3, 5)

    def test_membership_and_position(self):
        hubs = HubSet.from_iterable([2, 7])
        assert 7 in hubs
        assert 3 not in hubs
        assert hubs.position(7) == 1

    def test_mask(self):
        hubs = HubSet.from_iterable([0, 2])
        assert hubs.mask(4).tolist() == [True, False, True, False]

    def test_empty(self):
        hubs = HubSet(())
        assert len(hubs) == 0
        assert not hubs.mask(3).any()


class TestDegreeHubSelection:
    def test_star_centre_selected(self):
        star = star_graph(6)
        hubs = select_hubs_by_degree(star, 1)
        assert 0 in hubs

    def test_budget_zero_gives_empty(self, small_web_graph):
        assert len(select_hubs_by_degree(small_web_graph, 0)) == 0

    def test_size_between_budget_and_twice_budget(self, small_web_graph):
        budget = 5
        hubs = select_hubs_by_degree(small_web_graph, budget)
        assert budget <= len(hubs) <= 2 * budget

    def test_contains_highest_in_degree_node(self, small_web_graph):
        hubs = select_hubs_by_degree(small_web_graph, 3)
        assert int(np.argmax(small_web_graph.in_degree)) in hubs

    def test_budget_larger_than_graph(self, small_web_graph):
        hubs = select_hubs_by_degree(small_web_graph, 10_000)
        assert len(hubs) == small_web_graph.n_nodes

    def test_deterministic(self, small_web_graph):
        assert select_hubs_by_degree(small_web_graph, 4).nodes == select_hubs_by_degree(
            small_web_graph, 4
        ).nodes


class TestSelectorParityOnDegreeTies:
    """Graph- and matrix-based selectors share one tie-break (degree_union_hubs)."""

    @staticmethod
    def _matrix_selection(graph, budget):
        from repro.core.lbi import _select_hubs_from_matrix
        from repro.graph import transition_matrix

        return _select_hubs_from_matrix(transition_matrix(graph), budget)

    def test_ring_all_degrees_tied(self):
        # Every node of a ring has in-degree = out-degree = 1: the selection
        # is decided purely by the tie-break, which must be shared.
        from repro.graph import ring_graph

        graph = ring_graph(12)
        for budget in (1, 3, 5, 12):
            assert (
                select_hubs_by_degree(graph, budget).nodes
                == self._matrix_selection(graph, budget).nodes
            )

    def test_tie_heavy_custom_graph(self):
        # Two groups of nodes with identical degrees, budget cutting through
        # the tie — exactly where a drifting secondary sort key would show.
        import scipy.sparse as sp

        from repro.graph import DiGraph

        edges = []
        for u in (0, 1, 2, 3):  # tied out-degree 2
            edges += [(u, 4), (u, 5)]
        for u in (6, 7):  # tied out-degree 1, pointing at tied receivers
            edges += [(u, 8)]
        edges += [(4, 0), (5, 1), (8, 6)]
        rows, cols = zip(*edges)
        adjacency = sp.csr_matrix(
            (np.ones(len(edges)), (rows, cols)), shape=(9, 9)
        )
        graph = DiGraph(adjacency)
        for budget in range(1, 9):
            assert (
                select_hubs_by_degree(graph, budget).nodes
                == self._matrix_selection(graph, budget).nodes
            ), budget

    def test_parity_on_generated_graphs(self, small_web_graph, small_trust_graph):
        for graph in (small_web_graph, small_trust_graph):
            for budget in (2, 5, 9):
                assert (
                    select_hubs_by_degree(graph, budget).nodes
                    == self._matrix_selection(graph, budget).nodes
                )

