"""Tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.graph import (
    complete_graph,
    coauthorship_graph,
    copying_web_graph,
    erdos_renyi_graph,
    ring_graph,
    scale_free_graph,
    spam_host_graph,
    star_graph,
    trust_graph,
)
from repro.graph.generators import paper_toy_graph
from repro.graph.stats import summarize


class TestDeterministicTopologies:
    def test_ring_structure(self):
        ring = ring_graph(5)
        assert ring.n_nodes == 5
        assert ring.n_edges == 5
        assert ring.has_edge(4, 0)
        assert all(d == 1 for d in ring.out_degree)

    def test_star_structure(self):
        star = star_graph(4)
        assert star.n_nodes == 5
        assert star.n_edges == 8

    def test_complete_graph(self):
        graph = complete_graph(4)
        assert graph.n_edges == 12
        assert not graph.has_edge(0, 0)

    def test_toy_graph_has_six_nodes(self):
        toy = paper_toy_graph()
        assert toy.n_nodes == 6
        # Nodes 0 and 1 (paper's 1 and 2) should carry the highest degrees,
        # matching the statement that they become the hubs.
        total_degree = toy.in_degree + toy.out_degree
        top_two = set(np.argsort(-total_degree)[:2].tolist())
        assert top_two == {0, 1}

    def test_invalid_sizes_rejected(self):
        with pytest.raises(InvalidParameterError):
            ring_graph(0)
        with pytest.raises(InvalidParameterError):
            star_graph(-1)


class TestRandomGenerators:
    def test_erdos_renyi_reproducible(self):
        first = erdos_renyi_graph(40, 0.1, seed=7)
        second = erdos_renyi_graph(40, 0.1, seed=7)
        assert first == second

    def test_erdos_renyi_density(self):
        graph = erdos_renyi_graph(100, 0.05, seed=1)
        density = graph.n_edges / (100 * 99)
        assert 0.02 < density < 0.09

    def test_erdos_renyi_no_self_loops_by_default(self):
        graph = erdos_renyi_graph(30, 0.3, seed=2)
        assert all(not graph.has_edge(v, v) for v in range(30))

    def test_scale_free_has_skewed_in_degree(self):
        graph = scale_free_graph(200, seed=3)
        in_degree = graph.in_degree
        assert in_degree.max() > 4 * max(1.0, np.median(in_degree))

    def test_scale_free_rejects_tiny_graph(self):
        with pytest.raises(InvalidParameterError):
            scale_free_graph(1)

    def test_scale_free_rejects_bad_exponent(self):
        with pytest.raises(InvalidParameterError):
            scale_free_graph(50, exponent=0.9)

    def test_copying_web_reproducible(self):
        assert copying_web_graph(60, seed=5) == copying_web_graph(60, seed=5)

    def test_copying_web_different_seeds_differ(self):
        assert copying_web_graph(60, seed=5) != copying_web_graph(60, seed=6)

    def test_copying_web_no_dangling(self):
        graph = copying_web_graph(80, seed=4)
        assert graph.dangling_nodes().size == 0

    def test_copying_web_density_tracks_out_degree(self):
        graph = copying_web_graph(200, out_degree=6, seed=9)
        assert 3.0 <= graph.n_edges / graph.n_nodes <= 8.0

    def test_trust_graph_reciprocity(self):
        graph = trust_graph(150, reciprocity=0.5, seed=11)
        stats = summarize(graph)
        low = summarize(trust_graph(150, reciprocity=0.0, seed=11)).reciprocity
        assert stats.reciprocity > low

    def test_trust_graph_size(self):
        graph = trust_graph(100, seed=1)
        assert graph.n_nodes == 100
        assert graph.n_edges > 100


class TestLabelledGenerators:
    def test_spam_graph_labels_shape(self):
        graph, labels = spam_host_graph(60, 20, seed=1)
        assert graph.n_nodes == 80
        assert labels.shape == (80,)
        assert labels.sum() == 20
        assert set(np.unique(labels)) <= {0, 1}

    def test_spam_nodes_link_mostly_to_spam(self):
        graph, labels = spam_host_graph(100, 40, seed=2)
        spam_ids = np.flatnonzero(labels == 1)
        into_spam = 0
        total = 0
        for spam in spam_ids:
            for target in graph.out_neighbors(int(spam)):
                total += 1
                into_spam += labels[target] == 1
        assert total > 0
        assert into_spam / total > 0.7

    def test_coauthorship_weighted_and_symmetric(self):
        graph, counts = coauthorship_graph(50, seed=3)
        assert graph.is_weighted
        assert counts.shape == (50,)
        for source, target, weight in list(graph.edges())[:50]:
            assert graph.edge_weight(target, source) == pytest.approx(weight)

    def test_coauthorship_prolific_authors_have_high_degree(self):
        graph, counts = coauthorship_graph(80, n_prolific=2, prolific_boost=20.0, seed=4)
        degrees = graph.out_degree
        prolific = np.argsort(-counts)[:2]
        assert degrees[prolific].mean() > degrees.mean()

    def test_generators_reject_invalid_probability(self):
        with pytest.raises(InvalidParameterError):
            erdos_renyi_graph(10, 1.5)
        with pytest.raises(InvalidParameterError):
            copying_web_graph(10, copy_probability=-0.1)
