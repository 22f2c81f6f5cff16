"""Tests for edge-list I/O."""

import pytest

from repro.exceptions import SerializationError
from repro.graph import ring_graph, stream_edge_list, write_edge_list
from repro.graph.generators import coauthorship_graph, copying_web_graph


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
