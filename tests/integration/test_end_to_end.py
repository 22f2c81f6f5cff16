"""Integration tests: full pipelines across modules, mirroring real usage."""

import numpy as np

from repro import (
    IndexParams,
    ReverseTopKEngine,
    proximity_to_node,
    transition_matrix,
)
from repro.core import ReverseTopKIndex, build_index
from repro.core.baseline import FeasibleBruteForce
from repro.graph import datasets, stream_edge_list, write_edge_list
from repro.rwr import ProximityLU


class TestFullPipeline:
    def test_dataset_to_query_pipeline(self, reverse_topk_checker):
        """Load a dataset stand-in, build the index, query, verify vs oracle."""
        graph = datasets.web_stanford_cs(scale=0.04, seed=0)
        matrix = transition_matrix(graph)
        exact = ProximityLU(matrix).matrix()
        params = IndexParams(capacity=12, hub_budget=4)
        engine = ReverseTopKEngine.build(graph, params, transition=matrix)
        for query in np.random.default_rng(1).integers(0, graph.n_nodes, 8).tolist():
            result = engine.query(query, 5)
            reverse_topk_checker(result.nodes, exact, query, 5)

    def test_save_query_reload_cycle(self, tmp_path, reverse_topk_checker):
        """Index persistence in the middle of a query workload keeps answers stable."""
        graph = datasets.epinions(scale=0.02, seed=2)
        matrix = transition_matrix(graph)
        exact = ProximityLU(matrix).matrix()
        params = IndexParams(capacity=10, hub_budget=4)
        engine = ReverseTopKEngine.build(graph, params, transition=matrix)
        engine.query(0, 5)  # refine a little
        path = engine.index.persist(tmp_path / "index")

        reloaded = ReverseTopKEngine(matrix, ReverseTopKIndex.load(path))
        for query in (1, 3, 7):
            result = reloaded.query(query, 5)
            reverse_topk_checker(result.nodes, exact, query, 5)

    def test_edge_list_round_trip_preserves_answers(self, tmp_path, small_web_graph):
        """Export the graph, re-import it, and check queries are unchanged."""
        path = tmp_path / "graph.txt"
        write_edge_list(small_web_graph, path)
        reloaded = stream_edge_list(path)
        params = IndexParams(capacity=10, hub_budget=3)
        original_engine = ReverseTopKEngine.build(small_web_graph, params)
        reloaded_engine = ReverseTopKEngine.build(reloaded, params)
        for query in (0, 11, 29):
            a = set(original_engine.query(query, 5).nodes.tolist())
            b = set(reloaded_engine.query(query, 5).nodes.tolist())
            assert a == b

    def test_workload_sequence_with_updates_stays_correct(
        self, small_web_graph, small_transition, small_exact_matrix, reverse_topk_checker
    ):
        """A long update-mode workload never degrades correctness (Figure 7 setting)."""
        params = IndexParams(capacity=12, hub_budget=4)
        engine = ReverseTopKEngine.build(
            small_web_graph, params, transition=small_transition
        )
        queries = np.random.default_rng(3).integers(0, small_web_graph.n_nodes, 25)
        for query in queries.tolist():
            result = engine.query(query, 5, update_index=True)
            reverse_topk_checker(result.nodes, small_exact_matrix, query, 5)

    def test_refinement_makes_index_monotonically_tighter(
        self, small_web_graph, small_transition
    ):
        params = IndexParams(capacity=12, hub_budget=4)
        engine = ReverseTopKEngine.build(
            small_web_graph, params, transition=small_transition
        )
        before = engine.index.columns.lower.copy()
        queries = np.random.default_rng(4).integers(0, small_web_graph.n_nodes, 10)
        for query in queries.tolist():
            engine.query(query, 8, update_index=True)
        after = engine.index.columns.lower
        assert np.all(after >= before - 1e-12)

    def test_weighted_graph_pipeline(self, weighted_coauthor_graph, reverse_topk_checker):
        """Weighted transition matrix end-to-end (the Table 3 setting)."""
        from repro.graph import weighted_transition_matrix

        graph, _ = weighted_coauthor_graph
        matrix = weighted_transition_matrix(graph)
        exact = ProximityLU(matrix).matrix()
        params = IndexParams(capacity=10, hub_budget=4)
        engine = ReverseTopKEngine.build(graph, params, transition=matrix)
        for query in (0, 10, 30):
            result = engine.query(query, 4)
            reverse_topk_checker(result.nodes, exact, query, 4)

    def test_engine_agrees_with_fbf_on_clear_cases(
        self, small_web_graph, small_transition, small_exact_matrix, reverse_topk_checker
    ):
        params = IndexParams(capacity=12, hub_budget=4)
        engine = ReverseTopKEngine.build(
            small_web_graph, params, transition=small_transition
        )
        fbf = FeasibleBruteForce(small_transition, capacity=12)
        for query in (5, 25, 45):
            reverse_topk_checker(engine.query(query, 6).nodes, small_exact_matrix, query, 6)
            reverse_topk_checker(fbf.query(query, 6), small_exact_matrix, query, 6)

    def test_public_api_importable_from_top_level(self):
        import repro

        assert hasattr(repro, "ReverseTopKEngine")
        assert hasattr(repro, "IndexParams")
        assert hasattr(repro, "proximity_to_node")
        assert repro.__version__


class TestScalingBehaviour:
    def test_query_cheaper_than_offline_full_matrix(self):
        """The core value proposition: one query ≪ computing all proximity vectors."""
        graph = datasets.web_stanford_cs(scale=0.08, seed=1)
        matrix = transition_matrix(graph)
        params = IndexParams(capacity=20, hub_budget=8)
        engine = ReverseTopKEngine.build(graph, params, transition=matrix)
        result = engine.query(0, 10)
        # PMPN cost dominates a query; it must touch far fewer proximity vector
        # computations than the n power-method runs of the brute force.
        assert result.statistics.n_refined_nodes < graph.n_nodes / 4

    def test_index_smaller_than_full_matrix(self):
        graph = datasets.web_stanford_cs(scale=0.08, seed=1)
        matrix = transition_matrix(graph)
        params = IndexParams(capacity=20, hub_budget=8)
        index = build_index(graph, params, transition=matrix)
        full_matrix_bytes = graph.n_nodes * graph.n_nodes * 8
        assert index.total_bytes() < full_matrix_bytes
