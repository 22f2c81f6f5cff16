"""Tests for edge-list and label I/O."""

import pytest

from repro.exceptions import SerializationError
from repro.graph import (
    read_node_labels,
    ring_graph,
    stream_edge_list,
    write_edge_list,
    write_node_labels,
)
from repro.graph.generators import coauthorship_graph, copying_web_graph
from repro.graph.io import labels_to_array


class TestEdgeListRoundTrip:
    def test_unweighted_round_trip(self, tmp_path):
        graph = copying_web_graph(40, seed=1)
        path = tmp_path / "graph.txt"
        write_edge_list(graph, path)
        loaded = stream_edge_list(path)
        assert loaded == graph

    def test_weighted_round_trip(self, tmp_path):
        graph, _ = coauthorship_graph(30, seed=2)
        path = tmp_path / "weighted.txt"
        write_edge_list(graph, path)
        loaded = stream_edge_list(path, weighted=True)
        assert loaded.n_nodes == graph.n_nodes
        assert loaded.n_edges == graph.n_edges
        assert loaded == graph

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# comment\n\n0 1\n1 2\n")
        graph = stream_edge_list(path)
        assert graph.n_edges == 2

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SerializationError):
            stream_edge_list(tmp_path / "missing.txt")

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n")
        with pytest.raises(SerializationError):
            stream_edge_list(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(SerializationError):
            stream_edge_list(path)

    def test_weight_column_ignored_when_unweighted(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("0 1 9.5\n")
        graph = stream_edge_list(path, weighted=False)
        assert graph.edge_weight(0, 1) == pytest.approx(1.0)

    def test_header_written(self, tmp_path):
        path = tmp_path / "ring.txt"
        write_edge_list(ring_graph(3), path)
        assert path.read_text().startswith("#")


class TestNodeLabels:
    def test_round_trip_dict(self, tmp_path):
        labels = {0: "spam", 1: "normal", 5: "spam"}
        path = tmp_path / "labels.txt"
        write_node_labels(labels, path)
        assert read_node_labels(path) == labels

    def test_round_trip_pairs(self, tmp_path):
        path = tmp_path / "labels.txt"
        write_node_labels([(2, "a"), (1, "b")], path)
        assert read_node_labels(path) == {1: "b", 2: "a"}

    def test_malformed_label_line(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("3\n")
        with pytest.raises(SerializationError):
            read_node_labels(path)

    def test_labels_to_array(self):
        labels = {0: "spam", 2: "normal", 4: "spam"}
        array = labels_to_array(labels, 5, positive="spam")
        assert array.tolist() == [1, 0, 0, 0, 1]

    def test_labels_to_array_ignores_out_of_range(self):
        array = labels_to_array({10: "spam"}, 3, positive="spam")
        assert array.tolist() == [0, 0, 0]
