"""Tests for query workload generators."""

import numpy as np
import pytest

from repro.workloads import degree_weighted_query_workload, uniform_query_workload


class TestQueryWorkloads:
    def test_uniform_reproducible(self, small_web_graph):
        a = uniform_query_workload(small_web_graph, 20, seed=1)
        b = uniform_query_workload(small_web_graph, 20, seed=1)
        np.testing.assert_array_equal(a.queries, b.queries)

    def test_uniform_within_range(self, small_web_graph):
        workload = uniform_query_workload(small_web_graph, 50, seed=2)
        assert workload.queries.min() >= 0
        assert workload.queries.max() < small_web_graph.n_nodes

    def test_uniform_without_replacement_unique(self, small_web_graph):
        workload = uniform_query_workload(small_web_graph, 30, seed=3, replace=False)
        assert len(set(workload.queries.tolist())) == len(workload)

    def test_accepts_plain_node_count(self):
        workload = uniform_query_workload(100, 10, seed=0)
        assert workload.queries.max() < 100

    def test_degree_weighted_prefers_high_degree(self, small_web_graph):
        workload = degree_weighted_query_workload(small_web_graph, 400, seed=4)
        counts = np.bincount(workload.queries, minlength=small_web_graph.n_nodes)
        degrees = small_web_graph.in_degree
        top_nodes = np.argsort(-degrees)[:5]
        bottom_nodes = np.argsort(degrees)[:5]
        assert counts[top_nodes].mean() > counts[bottom_nodes].mean()

    def test_with_k_changes_only_depth(self, small_web_graph):
        workload = uniform_query_workload(small_web_graph, 10, k=5, seed=1)
        deeper = workload.with_k(20)
        assert deeper.k == 20
        np.testing.assert_array_equal(deeper.queries, workload.queries)

    def test_iteration_yields_ints(self, small_web_graph):
        workload = uniform_query_workload(small_web_graph, 5, seed=0)
        assert all(isinstance(query, int) for query in workload)

    def test_without_replacement_caps_at_the_node_count(self):
        workload = uniform_query_workload(12, 40, seed=5, replace=False)
        assert sorted(workload.queries.tolist()) == list(range(12))

    def test_degree_weighted_out_direction_uses_out_degree(self, small_web_graph):
        workload = degree_weighted_query_workload(
            small_web_graph, 400, seed=4, direction="out"
        )
        assert workload.description == "degree-weighted (out)"
        counts = np.bincount(workload.queries, minlength=small_web_graph.n_nodes)
        degrees = small_web_graph.out_degree
        top_nodes = np.argsort(-degrees, kind="stable")[:5]
        bottom_nodes = np.argsort(degrees, kind="stable")[:5]
        assert counts[top_nodes].mean() > counts[bottom_nodes].mean()

    def test_invalid_sizes_rejected(self, small_web_graph):
        with pytest.raises(ValueError):
            uniform_query_workload(small_web_graph, 0)
        with pytest.raises(ValueError):
            degree_weighted_query_workload(small_web_graph, -1)
        with pytest.raises(ValueError):
            uniform_query_workload(small_web_graph, 5).with_k(0)


class TestZipfianWorkload:
    def test_reproducible(self, small_web_graph):
        from repro.workloads import zipfian_query_workload

        a = zipfian_query_workload(small_web_graph, 50, seed=5)
        b = zipfian_query_workload(small_web_graph, 50, seed=5)
        np.testing.assert_array_equal(a.queries, b.queries)

    def test_repeat_heavy(self, small_web_graph):
        from repro.workloads import zipfian_query_workload

        workload = zipfian_query_workload(
            small_web_graph, 200, seed=1, hot_fraction=0.1
        )
        unique = len(set(workload.queries.tolist()))
        # Far fewer unique queries than requests: that is the point.
        assert unique <= len(workload) // 3

    def test_hot_pool_bounds_queries(self):
        from repro.workloads import zipfian_query_workload

        workload = zipfian_query_workload(1000, 100, seed=2, hot_fraction=0.02)
        assert len(set(workload.queries.tolist())) <= 20
        assert workload.queries.min() >= 0
        assert workload.queries.max() < 1000

    def test_more_skew_fewer_uniques(self):
        from repro.workloads import zipfian_query_workload

        mild = zipfian_query_workload(500, 300, seed=3, exponent=0.5, hot_fraction=0.2)
        steep = zipfian_query_workload(500, 300, seed=3, exponent=2.0, hot_fraction=0.2)
        assert len(set(steep.queries.tolist())) < len(set(mild.queries.tolist()))

    def test_invalid_parameters_rejected(self):
        from repro.workloads import zipfian_query_workload

        with pytest.raises(ValueError):
            zipfian_query_workload(100, 10, exponent=0.0)
        with pytest.raises(ValueError):
            zipfian_query_workload(100, 10, hot_fraction=0.0)
        with pytest.raises(ValueError):
            zipfian_query_workload(100, 10, hot_fraction=1.5)


class TestChurnWorkload:
    def _graph(self):
        from repro.graph import copying_web_graph

        return copying_web_graph(60, out_degree=3, seed=17)

    def test_composition_and_determinism(self):
        from repro.workloads import QueryEvent, UpdateEvent, churn_workload

        graph = self._graph()
        a = churn_workload(graph, 30, 5, k=6, batch_size=3, seed=4)
        b = churn_workload(graph, 30, 5, k=6, batch_size=3, seed=4)
        assert a.events == b.events
        assert a.n_queries == 30
        assert a.n_update_batches == 5
        assert a.n_updates <= 15
        assert all(
            isinstance(event, (QueryEvent, UpdateEvent)) for event in a
        )
        assert all(event.k == 6 for event in a if isinstance(event, QueryEvent))
        assert len(a.queries()) == 30

    def test_updates_are_valid_in_stream_order(self):
        from repro.dynamic import apply_batch
        from repro.workloads import UpdateEvent, churn_workload

        graph = self._graph()
        workload = churn_workload(graph, 40, 8, batch_size=4, seed=9)
        for event in workload:
            if isinstance(event, UpdateEvent):
                graph, _ = apply_batch(graph, event.updates)  # raises if invalid
        assert graph.n_edges > 0

    def test_update_batches_are_interleaved(self):
        from repro.workloads import UpdateEvent, churn_workload

        workload = churn_workload(self._graph(), 40, 4, seed=5)
        positions = [
            position
            for position, event in enumerate(workload)
            if isinstance(event, UpdateEvent)
        ]
        assert len(positions) == 4
        # spread through the stream, not clumped at either end
        assert positions[0] < len(workload) / 2
        assert positions[-1] > len(workload) / 2

    def test_zero_update_batches(self):
        from repro.workloads import churn_workload

        workload = churn_workload(self._graph(), 10, 0, seed=6)
        assert workload.n_update_batches == 0
        assert workload.n_queries == 10

    def test_invalid_fractions_rejected(self):
        from repro.workloads import churn_workload

        with pytest.raises(ValueError):
            churn_workload(self._graph(), 10, 2, add_fraction=0.8, remove_fraction=0.5)
        with pytest.raises(ValueError):
            churn_workload(self._graph(), 10, -1)

    def test_more_batches_than_queries_rejected(self):
        from repro.workloads import churn_workload

        with pytest.raises(ValueError, match="must not exceed"):
            churn_workload(self._graph(), 2, 5, seed=1)
