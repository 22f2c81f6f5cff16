"""Unit tests for the DiGraph container."""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import GraphError, NodeNotFoundError
from repro.graph import DiGraph, ring_graph, star_graph


@pytest.fixture()
def triangle() -> DiGraph:
    matrix = np.array(
        [
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 2.0],
            [3.0, 0.0, 0.0],
        ]
    )
    return DiGraph(matrix, node_names=["a", "b", "c"])


class TestConstruction:
    def test_counts(self, triangle):
        assert triangle.n_nodes == 3
        assert triangle.n_edges == 3

    def test_rejects_non_square(self):
        with pytest.raises(GraphError):
            DiGraph(np.zeros((2, 3)))

    def test_rejects_negative_weights(self):
        with pytest.raises(GraphError):
            DiGraph(np.array([[0.0, -1.0], [0.0, 0.0]]))

    def test_rejects_wrong_number_of_names(self):
        with pytest.raises(GraphError):
            DiGraph(np.zeros((2, 2)), node_names=["only-one"])

    def test_duplicate_edges_are_summed(self):
        rows = np.array([0, 0])
        cols = np.array([1, 1])
        data = np.array([1.0, 2.0])
        graph = DiGraph(sp.csr_matrix((data, (rows, cols)), shape=(2, 2)))
        assert graph.n_edges == 1
        assert graph.edge_weight(0, 1) == pytest.approx(3.0)

    def test_explicit_zeros_are_dropped(self):
        rows = np.array([0, 1])
        cols = np.array([1, 0])
        data = np.array([1.0, 0.0])
        graph = DiGraph(sp.csr_matrix((data, (rows, cols)), shape=(2, 2)))
        assert graph.n_edges == 1

    def test_len_and_contains(self, triangle):
        assert len(triangle) == 3
        assert 0 in triangle
        assert 2 in triangle
        assert 3 not in triangle
        assert "a" not in triangle

    def test_repr_mentions_sizes(self, triangle):
        text = repr(triangle)
        assert "3" in text
        assert "DiGraph" in text

    def test_weighted_flag(self, triangle):
        assert triangle.is_weighted
        assert not ring_graph(4).is_weighted


class TestDegrees:
    def test_out_degree(self, triangle):
        assert triangle.out_degree.tolist() == [1, 1, 1]

    def test_in_degree(self, triangle):
        assert triangle.in_degree.tolist() == [1, 1, 1]

    def test_out_weight(self, triangle):
        assert triangle.out_weight.tolist() == [1.0, 2.0, 3.0]

    def test_star_degrees(self):
        star = star_graph(4)
        assert star.out_degree[0] == 4
        assert star.in_degree[0] == 4
        assert star.out_degree[1] == 1

    def test_dangling_nodes(self):
        graph = DiGraph(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert graph.dangling_nodes().tolist() == [1]

    def test_no_dangling_in_ring(self):
        assert ring_graph(5).dangling_nodes().size == 0


class TestNeighbors:
    def test_out_neighbors(self, triangle):
        assert triangle.out_neighbors(0).tolist() == [1]
        assert triangle.out_neighbors(2).tolist() == [0]

    def test_in_neighbors(self, triangle):
        assert triangle.in_neighbors(0).tolist() == [2]

    def test_has_edge(self, triangle):
        assert triangle.has_edge(0, 1)
        assert not triangle.has_edge(1, 0)

    def test_edge_weight_absent_edge(self, triangle):
        assert triangle.edge_weight(0, 2) == 0.0

    def test_edges_iteration(self, triangle):
        edges = set(triangle.edges())
        assert (0, 1, 1.0) in edges
        assert (1, 2, 2.0) in edges
        assert (2, 0, 3.0) in edges

    def test_unknown_node_raises(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.out_neighbors(99)
        with pytest.raises(NodeNotFoundError):
            triangle.in_neighbors(-1)


class TestNames:
    def test_name_of(self, triangle):
        assert triangle.name_of(0) == "a"

    def test_node_id(self, triangle):
        assert triangle.node_id("c") == 2

    def test_node_id_missing(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.node_id("zzz")

    def test_name_fallback_without_labels(self):
        graph = ring_graph(3)
        assert graph.name_of(1) == "1"


class TestTransformations:
    def test_reverse_flips_edges(self, triangle):
        reverse = triangle.reverse()
        assert reverse.has_edge(1, 0)
        assert not reverse.has_edge(0, 1)
        assert reverse.n_edges == triangle.n_edges

    def test_reverse_twice_is_identity(self, triangle):
        assert triangle.reverse().reverse() == triangle

    def test_subgraph(self, triangle):
        sub = triangle.subgraph([0, 1])
        assert sub.n_nodes == 2
        assert sub.has_edge(0, 1)
        assert sub.n_edges == 1

    def test_subgraph_keeps_names(self, triangle):
        sub = triangle.subgraph([1, 2])
        assert sub.node_names == ("b", "c")

    def test_subgraph_rejects_out_of_range(self, triangle):
        with pytest.raises(GraphError):
            triangle.subgraph([0, 10])

    def test_equality(self):
        assert ring_graph(4) == ring_graph(4)
        assert ring_graph(4) != ring_graph(5)


class TestPickling:
    def test_round_trip_preserves_structure(self, triangle):
        import pickle

        clone = pickle.loads(pickle.dumps(triangle))
        assert clone == triangle
        assert clone.node_names == triangle.node_names
        assert clone.is_weighted == triangle.is_weighted

    def test_payload_drops_derived_caches(self, triangle):
        # Warm every lazy cache, then check none of it ships in the pickle.
        triangle.in_degree
        triangle.out_weight
        triangle.node_id("b")
        triangle.is_weighted
        state = triangle.__getstate__()
        assert set(state) == {"adjacency", "node_names"}

    def test_caches_rebuild_after_unpickling(self, triangle):
        import pickle

        triangle.node_id("c")  # warm the name map on the original
        clone = pickle.loads(pickle.dumps(triangle))
        np.testing.assert_array_equal(clone.in_degree, triangle.in_degree)
        np.testing.assert_array_equal(clone.out_degree, triangle.out_degree)
        assert clone.node_id("c") == triangle.node_id("c")
        assert clone.in_neighbors(0).tolist() == triangle.in_neighbors(0).tolist()

    def test_unnamed_graph_round_trip(self):
        import pickle

        graph = ring_graph(6)
        clone = pickle.loads(pickle.dumps(graph))
        assert clone == graph
        assert clone.node_names is None


class TestWithEdges:
    def test_add_new_edge(self, triangle):
        updated = triangle.with_edges(added=[(0, 2, 4.0)])
        assert updated.has_edge(0, 2)
        assert updated.edge_weight(0, 2) == pytest.approx(4.0)
        assert updated.n_edges == triangle.n_edges + 1
        # the original is untouched (immutability preserved)
        assert not triangle.has_edge(0, 2)

    def test_default_weight_is_one(self, triangle):
        updated = triangle.with_edges(added=[(0, 2)])
        assert updated.edge_weight(0, 2) == pytest.approx(1.0)

    def test_overwrite_existing_edge(self, triangle):
        updated = triangle.with_edges(added=[(0, 1, 7.5)])
        assert updated.n_edges == triangle.n_edges
        assert updated.edge_weight(0, 1) == pytest.approx(7.5)

    def test_last_added_occurrence_wins(self, triangle):
        updated = triangle.with_edges(added=[(0, 2, 1.0), (0, 2, 9.0)])
        assert updated.edge_weight(0, 2) == pytest.approx(9.0)

    def test_remove_edge(self, triangle):
        updated = triangle.with_edges(removed=[(0, 1)])
        assert not updated.has_edge(0, 1)
        assert updated.n_edges == triangle.n_edges - 1
        assert updated.n_nodes == triangle.n_nodes

    def test_remove_missing_edge_rejected(self, triangle):
        with pytest.raises(GraphError, match="missing edge"):
            triangle.with_edges(removed=[(0, 2)])

    def test_added_and_removed_conflict_rejected(self, triangle):
        with pytest.raises(GraphError, match="both added and removed"):
            triangle.with_edges(added=[(0, 1, 2.0)], removed=[(0, 1)])

    def test_zero_weight_rejected(self, triangle):
        with pytest.raises(GraphError, match="positive"):
            triangle.with_edges(added=[(0, 2, 0.0)])

    def test_out_of_range_nodes_rejected(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.with_edges(added=[(0, 99)])
        with pytest.raises(NodeNotFoundError):
            triangle.with_edges(removed=[(99, 0)])

    def test_bad_tuple_arity_rejected(self, triangle):
        with pytest.raises(GraphError):
            triangle.with_edges(added=[(0, 1, 2.0, 3.0)])

    def test_no_changes_returns_self(self, triangle):
        assert triangle.with_edges() is triangle

    def test_names_preserved(self, triangle):
        updated = triangle.with_edges(added=[(0, 2)])
        assert updated.node_names == triangle.node_names

    def test_matches_direct_construction(self, triangle):
        updated = triangle.with_edges(added=[(0, 2, 4.0)], removed=[(1, 2)])
        expected = np.array(
            [
                [0.0, 1.0, 4.0],
                [0.0, 0.0, 0.0],
                [3.0, 0.0, 0.0],
            ]
        )
        assert updated == DiGraph(expected)


def lil_with_edges(graph: DiGraph, added, removed) -> DiGraph:
    """Reference for ``with_edges``: the whole adjacency through LIL and back."""
    matrix = graph.adjacency.tolil(copy=True)
    for source, target in removed:
        matrix[source, target] = 0.0
    for source, target, *weight in added:
        matrix[source, target] = weight[0] if weight else 1.0
    return DiGraph(matrix.tocsr(), graph.node_names)


@st.composite
def edit_cases(draw):
    """A small weighted digraph and an edit set hitting every awkward shape."""
    n = draw(st.integers(min_value=2, max_value=9))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=10_000)))
    dense = (rng.random((n, n)) < draw(st.sampled_from([0.15, 0.4, 0.8]))) * (
        rng.integers(1, 4, (n, n)).astype(float)
    )
    names = [f"v{i}" for i in range(n)] if draw(st.booleans()) else None
    graph = DiGraph(sp.csr_matrix(dense), names)
    edges = [(u, v) for u, v, _ in graph.edges()]
    removed = [edges[i] for i in rng.permutation(len(edges))[: rng.integers(0, len(edges) + 1)]]
    if removed and draw(st.booleans()):
        # Empty a whole row, and name one removal twice.
        row = removed[0][0]
        removed += [edge for edge in edges if edge[0] == row and edge not in removed]
        removed.append(removed[0])
    taken = set(removed)
    added = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if (u, v) in taken:
            continue
        # Existing edges get overwritten, repeats keep the last weight.
        added.append((u, v, float(rng.integers(1, 6))) if rng.random() < 0.7 else (u, v))
        if rng.random() < 0.3:
            added.append((u, v, float(rng.integers(6, 9))))
    if removed and draw(st.booleans()):
        # Remove + add on the same source.
        u = removed[0][0]
        free = [v for v in range(n) if (u, v) not in taken]
        if free:
            added.append((u, free[0], 2.5))
    return graph, added, removed


class TestWithEdgesMatchesLilReference:
    @given(edit_cases())
    @settings(max_examples=150, deadline=None)
    def test_same_canonical_adjacency(self, case):
        graph, added, removed = case
        before = graph.adjacency.copy()
        edited = graph.with_edges(added, removed)
        expected = lil_with_edges(graph, added, removed)
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(
                getattr(edited.adjacency, name), getattr(expected.adjacency, name), name
            )
            assert (
                getattr(edited.adjacency, name).dtype
                == getattr(expected.adjacency, name).dtype
            )
        adjacency = edited.adjacency
        for row in range(graph.n_nodes):
            columns = adjacency.indices[adjacency.indptr[row] : adjacency.indptr[row + 1]]
            assert np.all(np.diff(columns) > 0)  # sorted, no duplicates
        assert np.all(adjacency.data > 0)  # no stored zeros
        assert edited.node_names == graph.node_names
        # The source graph is immutable.
        assert (before != graph.adjacency).nnz == 0

    def test_never_goes_through_lil(self, triangle, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("with_edges converted the adjacency to LIL")

        monkeypatch.setattr(sp.csr_matrix, "tolil", forbidden)
        edited = triangle.with_edges(added=[(0, 2, 4.0), (0, 1, 5.0)], removed=[(1, 2)])
        assert edited.edge_weight(0, 2) == 4.0 and edited.edge_weight(0, 1) == 5.0
        assert edited.out_degree.tolist() == [2, 0, 1]

    def test_added_and_removed_overlap_still_raises(self, triangle):
        with pytest.raises(GraphError, match="both added and removed"):
            triangle.with_edges(added=[(2, 1), (0, 1)], removed=[(0, 1)])


class TestEmptyGraphEdgeCases:
    def test_subgraph_of_no_nodes(self, triangle):
        empty = triangle.subgraph([])
        assert empty.n_nodes == 0
        assert empty.n_edges == 0
        assert len(empty) == 0

    def test_subgraph_of_no_nodes_keeps_empty_names(self, triangle):
        assert triangle.subgraph([]).node_names == ()

    def test_subgraph_of_unnamed_graph_has_no_names(self):
        graph = ring_graph(4)
        assert graph.subgraph([]).node_names is None

    def test_empty_graph_properties(self, triangle):
        empty = triangle.subgraph([])
        assert empty.dangling_nodes().size == 0
        assert not empty.is_weighted
        assert empty.out_degree.size == 0
        assert empty.in_degree.size == 0
        assert list(empty.edges()) == []
        assert 0 not in empty

    def test_empty_graph_transformations(self, triangle):
        empty = triangle.subgraph([])
        assert empty.reverse().n_nodes == 0
        assert empty.subgraph([]) == empty

    def test_empty_graph_rejects_node_access(self, triangle):
        empty = triangle.subgraph([])
        with pytest.raises(NodeNotFoundError):
            empty.out_neighbors(0)
        with pytest.raises(GraphError):
            empty.subgraph([0])

    def test_empty_graph_pickle_round_trip(self, triangle):
        import pickle

        empty = triangle.subgraph([])
        clone = pickle.loads(pickle.dumps(empty))
        assert clone == empty
        assert clone.n_nodes == 0

    def test_direct_empty_construction(self):
        empty = DiGraph(sp.csr_matrix((0, 0)))
        assert empty.n_nodes == 0
        assert repr(empty) == "DiGraph(n_nodes=0, n_edges=0)"


class TestNonFiniteWeights:
    def test_constructor_rejects_nan_and_inf(self):
        with pytest.raises(GraphError, match="finite"):
            DiGraph(np.array([[0.0, float("nan")], [0.0, 0.0]]))
        with pytest.raises(GraphError, match="finite"):
            DiGraph(np.array([[0.0, float("inf")], [0.0, 0.0]]))

    def test_with_edges_rejects_nan_weight(self, triangle):
        with pytest.raises(GraphError, match="finite"):
            triangle.with_edges(added=[(0, 2, float("nan"))])
        with pytest.raises(GraphError, match="finite"):
            triangle.with_edges(added=[(0, 2, float("inf"))])
