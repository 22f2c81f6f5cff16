"""Tests for graph summary statistics."""

import dataclasses

import numpy as np
import pytest

from repro.graph import DiGraph, complete_graph, ring_graph, star_graph, summarize


class TestSummarize:
    def test_ring_statistics(self):
        stats = summarize(ring_graph(10))
        assert stats.n_nodes == 10
        assert stats.n_edges == 10
        assert stats.mean_out_degree == pytest.approx(1.0)
        assert stats.n_dangling == 0
        assert stats.reciprocity == 0.0

    def test_complete_graph_reciprocity(self):
        stats = summarize(complete_graph(5))
        assert stats.reciprocity == pytest.approx(1.0)
        assert stats.density == pytest.approx(1.0)

    def test_dangling_count(self):
        graph = DiGraph(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert summarize(graph).n_dangling == 1

    def test_as_dict_keys(self):
        stats = summarize(ring_graph(4)).as_dict()
        assert {"n_nodes", "n_edges", "density", "reciprocity"} <= set(stats)

    def test_star_degrees(self):
        stats = summarize(star_graph(6))
        assert stats.max_out_degree == 6
        assert stats.max_in_degree == 6
        assert stats.n_edges == 12
        assert stats.reciprocity == pytest.approx(1.0)

    def test_partial_reciprocity_and_density(self):
        # 0 <-> 1 and 1 -> 2: two of the three edges are reciprocated.
        graph = DiGraph(np.array([[0, 1, 0], [1, 0, 1], [0, 0, 0]], dtype=float))
        stats = summarize(graph)
        assert stats.reciprocity == pytest.approx(2 / 3)
        assert stats.density == pytest.approx(3 / 6)
        assert stats.mean_out_degree == pytest.approx(1.0)
        assert stats.n_dangling == 1

    def test_weights_do_not_change_structure_statistics(self):
        weighted = DiGraph(np.array([[0, 2.5, 0], [0.1, 0, 7.0], [0, 0, 0]]))
        unweighted = DiGraph(np.array([[0, 1, 0], [1, 0, 1], [0, 0, 0]], dtype=float))
        assert summarize(weighted) == summarize(unweighted)

    def test_graph_without_edges(self):
        stats = summarize(DiGraph(np.zeros((4, 4))))
        assert stats.n_edges == 0
        assert stats.density == 0.0
        assert stats.reciprocity == 0.0
        assert stats.n_dangling == 4
        assert stats.max_out_degree == 0

    def test_single_node_density_is_zero(self):
        assert summarize(DiGraph(np.zeros((1, 1)))).density == 0.0

    def test_as_dict_matches_fields(self):
        stats = summarize(star_graph(3))
        assert stats.as_dict() == dataclasses.asdict(stats)

    def test_stats_are_frozen(self):
        stats = summarize(ring_graph(3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.n_nodes = 4
