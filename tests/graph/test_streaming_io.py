"""Streaming edge-list loader: bit-identity with the builder path.

``stream_edge_list`` parses files in chunks straight into CSR arrays; the
contract is that for any edge list — whatever the formatting noise (comments,
blank lines, tab/space/extra-whitespace variants) and whatever the chunk
size — the resulting graph is **bit-identical** to ``from_edges`` over the
same edges: same shape, same duplicate-summing, same CSR data/indices/indptr.
"""

import gzip
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.exceptions import GraphError, SerializationError
from repro.graph.builder import from_edges
from repro.graph.io import stream_edge_list

FIXTURE = Path(__file__).parent / "data" / "web_tiny.txt"


def assert_same_graph(actual, expected):
    a, b = actual.adjacency, expected.adjacency
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.data, b.data)


@st.composite
def edge_list_files(draw):
    """Random edges plus the text rendering with formatting noise."""
    n_edges = draw(st.integers(min_value=1, max_value=60))
    weighted = draw(st.booleans())
    edges = []
    for _ in range(n_edges):
        source = draw(st.integers(min_value=0, max_value=40))
        target = draw(st.integers(min_value=0, max_value=40))
        if weighted:
            weight = draw(
                st.floats(min_value=0.0, max_value=8.0, allow_nan=False, width=32)
            )
            edges.append((source, target, float(np.float32(weight))))
        else:
            edges.append((source, target))
    lines = []
    for edge in edges:
        if draw(st.booleans()) and draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# comment", "   ", "\t"])))
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
        prefix = draw(st.sampled_from(["", " ", "\t"]))
        suffix = draw(st.sampled_from(["", " ", "  "]))
        if weighted:
            source, target, weight = edge
            lines.append(f"{prefix}{source}{sep}{target}{sep}{weight!r}{suffix}")
        else:
            source, target = edge
            lines.append(f"{prefix}{source}{sep}{target}{suffix}")
    chunk_edges = draw(st.integers(min_value=1, max_value=64))
    return edges, "\n".join(lines) + "\n", weighted, chunk_edges


class TestStreamEqualsBuilder:
    @given(edge_list_files())
    @settings(max_examples=80, deadline=None)
    def test_bit_identical_to_from_edges(self, tmp_path_factory, case):
        edges, text, weighted, chunk_edges = case
        path = tmp_path_factory.mktemp("stream") / "edges.txt"
        path.write_text(text, encoding="utf-8")
        streamed = stream_edge_list(path, weighted=weighted, chunk_edges=chunk_edges)
        assert_same_graph(streamed, from_edges(edges))

    @given(edge_list_files())
    @settings(max_examples=25, deadline=None)
    def test_gzip_round_trip(self, tmp_path_factory, case):
        edges, text, weighted, chunk_edges = case
        path = tmp_path_factory.mktemp("stream") / "edges.txt.gz"
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(text)
        streamed = stream_edge_list(path, weighted=weighted, chunk_edges=chunk_edges)
        assert_same_graph(streamed, from_edges(edges))

    @given(edge_list_files(), st.integers(min_value=41, max_value=80))
    @settings(max_examples=25, deadline=None)
    def test_n_nodes_padding_matches(self, tmp_path_factory, case, n_nodes):
        edges, text, weighted, chunk_edges = case
        path = tmp_path_factory.mktemp("stream") / "edges.txt"
        path.write_text(text, encoding="utf-8")
        streamed = stream_edge_list(
            path, weighted=weighted, chunk_edges=chunk_edges, n_nodes=n_nodes
        )
        assert_same_graph(streamed, from_edges(edges, n_nodes=n_nodes))

    @given(edge_list_files())
    @settings(max_examples=25, deadline=None)
    def test_self_loop_filtering_matches(self, tmp_path_factory, case):
        edges, text, weighted, chunk_edges = case
        if all(edge[0] == edge[1] for edge in edges):
            return  # from_edges would (correctly) reject the empty graph
        path = tmp_path_factory.mktemp("stream") / "edges.txt"
        path.write_text(text, encoding="utf-8")
        streamed = stream_edge_list(
            path, weighted=weighted, chunk_edges=chunk_edges, allow_self_loops=False
        )
        assert_same_graph(streamed, from_edges(edges, allow_self_loops=False))


class TestBundledFixture:
    def test_fixture_streams_and_matches_a_line_parse(self):
        streamed = stream_edge_list(FIXTURE, chunk_edges=37)
        lines = FIXTURE.read_text(encoding="utf-8").splitlines()
        edges = [
            tuple(int(field) for field in line.split()[:2])
            for line in lines
            if line.strip() and not line.lstrip().startswith("#")
        ]
        assert_same_graph(streamed, from_edges(edges))
        assert streamed.n_nodes == 60
        assert streamed.n_edges == 216

    def test_fixture_chunk_size_invariance(self):
        whole = stream_edge_list(FIXTURE)
        for chunk_edges in (1, 7, 100):
            assert_same_graph(stream_edge_list(FIXTURE, chunk_edges=chunk_edges), whole)


class TestStreamErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(SerializationError):
            stream_edge_list(tmp_path / "absent.txt")

    def test_no_edges(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only comments\n\n", encoding="utf-8")
        with pytest.raises(SerializationError, match="contains no edges"):
            stream_edge_list(path)

    def test_too_few_columns(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n2\n", encoding="utf-8")
        with pytest.raises(SerializationError):
            stream_edge_list(path)

    def test_negative_ids(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("0 1\n-3 2\n", encoding="utf-8")
        with pytest.raises(GraphError, match="non-negative"):
            stream_edge_list(path)

    def test_bad_chunk_size(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("0 1\n", encoding="utf-8")
        with pytest.raises(SerializationError, match="chunk_edges"):
            stream_edge_list(path, chunk_edges=0)
