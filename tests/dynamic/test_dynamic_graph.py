"""Unit tests for GraphUpdate and apply_batch, the one-edit batch function."""

import numpy as np
import pytest

from repro.dynamic import GraphUpdate, apply_batch
from repro.exceptions import GraphError, InvalidParameterError
from repro.graph import from_edges


@pytest.fixture()
def graph():
    return from_edges([(0, 1), (1, 2), (2, 0), (2, 3)], n_nodes=5)


class TestGraphUpdate:
    def test_constructors(self):
        assert GraphUpdate.add(1, 2).op == "add"
        assert GraphUpdate.add(1, 2).weight == 1.0
        assert GraphUpdate.remove(1, 2).op == "remove"
        assert GraphUpdate.set_weight(1, 2, 3.0).weight == 3.0

    def test_rejects_unknown_op(self):
        with pytest.raises(GraphError):
            GraphUpdate("merge", 0, 1)

    def test_rejects_non_positive_weight(self):
        with pytest.raises(GraphError):
            GraphUpdate.add(0, 1, 0.0)
        with pytest.raises(GraphError):
            GraphUpdate.set_weight(0, 1, -1.0)

    def test_coerce_accepts_tuples(self):
        update = GraphUpdate.coerce(("add", 0, 1, 2.0))
        assert update == GraphUpdate.add(0, 1, 2.0)
        assert GraphUpdate.coerce(update) is update


class TestApplyBatch:
    def test_applies_every_kind_in_one_edit(self, graph):
        new, touched = apply_batch(
            graph,
            [
                GraphUpdate.add(3, 4, 2.0),
                ("remove", 1, 2),
                GraphUpdate.set_weight(2, 0, 4.0),
            ],
        )
        assert new.edge_weight(3, 4) == 2.0
        assert not new.has_edge(1, 2)
        assert new.edge_weight(2, 0) == 4.0
        assert new.n_nodes == 5 and new.n_edges == 4
        assert touched.tolist() == [1, 2, 3]
        # the input graph is immutable and untouched
        assert graph.has_edge(1, 2) and not graph.has_edge(3, 4)

    def test_validates_against_the_batch_so_far(self, graph):
        new, _ = apply_batch(
            graph, [GraphUpdate.remove(0, 1), GraphUpdate.add(0, 1, 3.0)]
        )
        assert new.edge_weight(0, 1) == 3.0
        new, _ = apply_batch(
            graph, [GraphUpdate.add(3, 4), GraphUpdate.set_weight(3, 4, 2.0)]
        )
        assert new.edge_weight(3, 4) == 2.0

    def test_accepts_tuples_and_numpy_ids(self, graph):
        new, touched = apply_batch(
            graph, [("add", np.int64(4), np.int32(1), 2.0), ("remove", 2, 0)]
        )
        assert new.edge_weight(4, 1) == 2.0 and not new.has_edge(2, 0)
        assert touched.dtype == np.int64 and touched.tolist() == [2, 4]

    def test_empty_batch_returns_the_graph(self, graph):
        new, touched = apply_batch(graph, [])
        assert new is graph and touched.size == 0


class TestValidation:
    def test_add_existing_edge_rejected(self, graph):
        with pytest.raises(GraphError, match="already exists"):
            apply_batch(graph, [GraphUpdate.add(0, 1)])

    def test_add_edge_added_earlier_in_the_batch_rejected(self, graph):
        with pytest.raises(GraphError, match="already exists"):
            apply_batch(graph, [GraphUpdate.add(3, 4), GraphUpdate.add(3, 4)])

    def test_remove_missing_edge_rejected(self, graph):
        with pytest.raises(GraphError, match="missing edge"):
            apply_batch(graph, [GraphUpdate.remove(4, 0)])

    def test_remove_edge_removed_earlier_in_the_batch_rejected(self, graph):
        with pytest.raises(GraphError, match="missing edge"):
            apply_batch(graph, [GraphUpdate.remove(0, 1), GraphUpdate.remove(0, 1)])

    def test_set_weight_on_missing_edge_rejected(self, graph):
        with pytest.raises(GraphError, match="missing edge"):
            apply_batch(graph, [GraphUpdate.set_weight(4, 0, 2.0)])

    @pytest.mark.parametrize("weight", [0.0, -2.0, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_weights_rejected(self, graph, weight):
        for update in (("add", 3, 4, weight), ("set_weight", 0, 1, weight)):
            with pytest.raises(GraphError):
                apply_batch(graph, [update])

    @pytest.mark.parametrize("edge", [(0, 99), (99, 0), (-1, 2)])
    def test_out_of_range_nodes_rejected(self, graph, edge):
        with pytest.raises(InvalidParameterError):
            apply_batch(graph, [GraphUpdate.add(*edge)])

    def test_a_late_failure_rejects_the_whole_batch(self, graph):
        with pytest.raises(GraphError):
            apply_batch(graph, [GraphUpdate.add(3, 4), GraphUpdate.remove(4, 0)])
        assert not graph.has_edge(3, 4)


class TestElision:
    def test_add_then_remove_is_a_noop(self, graph):
        new, touched = apply_batch(
            graph, [GraphUpdate.add(3, 4), GraphUpdate.remove(3, 4)]
        )
        assert new is graph
        # ...but the source is still reported, conservatively
        assert touched.tolist() == [3]

    def test_weight_restored_to_the_original_is_a_noop(self, graph):
        new, touched = apply_batch(
            graph,
            [GraphUpdate.set_weight(0, 1, 5.0), GraphUpdate.set_weight(0, 1, 1.0)],
        )
        assert new is graph
        assert touched.tolist() == [0]

    def test_noop_next_to_a_real_edit(self, graph):
        new, touched = apply_batch(
            graph,
            [
                GraphUpdate.remove(2, 3),
                GraphUpdate.add(2, 3),
                GraphUpdate.add(4, 0),
            ],
        )
        assert new.has_edge(2, 3) and new.has_edge(4, 0)
        assert new.n_edges == graph.n_edges + 1
        assert touched.tolist() == [2, 4]


class TestNonFiniteWeights:
    def test_update_constructors_reject_nan(self):
        with pytest.raises(GraphError, match="finite"):
            GraphUpdate.add(0, 1, float("nan"))
        with pytest.raises(GraphError, match="finite"):
            GraphUpdate.set_weight(0, 1, float("inf"))
