"""The paper's measurements on small graphs, asserted through the engine.

The §5.4 spam study, Table 3's author popularity and the pruning,
refinement and rounding effects of Figures 6, 7 and 9 are all read off
``ReverseTopKEngine`` answers and their statistics.  The figure scripts in
``benchmarks/figures`` report them at stand-in scale; these are the same
measurements at unit-test scale, each also checked against the exact
brute-force answer where one exists.
"""

import copy

import numpy as np
import pytest

from repro.core import IndexParams, ReverseTopKEngine, build_index
from repro.graph import copying_web_graph, spam_host_graph, transition_matrix
from repro.rwr import ProximityLU


SMALL_PARAMS = IndexParams(capacity=10, hub_budget=4)
TINY_PARAMS = IndexParams(capacity=8, hub_budget=3)


def _reverse_sizes(engine, nodes, k):
    return {int(node): len(engine.query(int(node), k).nodes) for node in nodes}


class TestSpamStudy:
    """§5.4: a link farm's target is known mostly by other spam hosts."""

    K = 5

    @pytest.fixture(scope="class")
    def spam_case(self):
        graph, labels = spam_host_graph(70, 20, seed=13)
        return graph, labels, ReverseTopKEngine.build(graph, SMALL_PARAMS)

    def _spam_share(self, engine, labels, host):
        members = [u for u in engine.query(int(host), self.K).nodes if u != host]
        return float(np.mean(labels[members] == 1)) if members else None

    def test_spam_share_in_unit_interval(self, spam_case):
        _, labels, engine = spam_case
        for host in np.flatnonzero(labels == 1)[:5]:
            share = self._spam_share(engine, labels, host)
            assert share is None or 0.0 <= share <= 1.0

    def test_spam_farm_target_has_spammy_reverse_set(self, spam_case):
        # The spam host with the highest in-degree is the link-farm target;
        # its reverse top-k set must be dominated by other spam hosts.
        graph, labels, engine = spam_case
        spam_hosts = np.flatnonzero(labels == 1)
        target = int(spam_hosts[np.argmax(graph.in_degree[spam_hosts])])
        assert self._spam_share(engine, labels, target) > 0.5

    def test_spam_queries_have_spammier_reverse_sets(self, spam_case):
        _, labels, engine = spam_case
        means = {}
        for label in (1, 0):
            shares = [
                self._spam_share(engine, labels, host)
                for host in np.flatnonzero(labels == label)[:8]
            ]
            means[label] = np.mean([s for s in shares if s is not None])
        assert means[1] > means[0]

    def test_reverse_sets_match_brute_force(self, spam_case, reverse_topk_checker):
        graph, labels, engine = spam_case
        exact = ProximityLU(transition_matrix(graph)).matrix()
        for host in np.flatnonzero(labels == 1)[:5]:
            answer = engine.query(int(host), self.K).nodes
            reverse_topk_checker(answer, exact, int(host), self.K)


class TestAuthorPopularity:
    """Table 3: an author's reverse top-k set can reach beyond co-authors."""

    K = 4

    @pytest.fixture(scope="class")
    def sizes(self, weighted_coauthor_graph):
        graph, _ = weighted_coauthor_graph
        engine = ReverseTopKEngine.build(graph, SMALL_PARAMS)
        return _reverse_sizes(engine, range(graph.n_nodes), self.K)

    def test_prolific_author_tops_ranking(self, sizes, weighted_coauthor_graph):
        _, paper_counts = weighted_coauthor_graph
        prolific = int(np.argmax(paper_counts))
        ranking = sorted(sizes, key=lambda author: (-sizes[author], author))
        assert prolific in ranking[:5]

    def test_reverse_size_can_exceed_degree(self, sizes, weighted_coauthor_graph):
        # The Table 3 effect: at least one author is known well beyond co-authors.
        graph, _ = weighted_coauthor_graph
        assert any(sizes[a] > int(graph.out_degree[a]) for a in sizes)

    def test_answers_agree_with_exact_up_to_ties(
        self, weighted_coauthor_graph, reverse_topk_checker
    ):
        graph, _ = weighted_coauthor_graph
        engine = ReverseTopKEngine.build(graph, SMALL_PARAMS)
        exact = ProximityLU(transition_matrix(graph)).matrix()
        for author in range(graph.n_nodes):
            answer = engine.query(author, self.K).nodes
            reverse_topk_checker(answer, exact, author, self.K)


@pytest.fixture(scope="module")
def tiny_case():
    graph = copying_web_graph(50, out_degree=4, seed=21)
    matrix = transition_matrix(graph)
    index = build_index(graph, TINY_PARAMS, transition=matrix)
    queries = np.random.default_rng(1).integers(0, graph.n_nodes, 8).tolist()
    return graph, matrix, index, queries


class TestFigureEffects:
    @pytest.mark.parametrize("k", [2, 4])
    def test_pruning_counts_are_nested(self, tiny_case, k):
        # Figure 6: immediate hits are candidates, and every hit is a result.
        _, matrix, index, workload = tiny_case
        engine = ReverseTopKEngine(matrix, copy.deepcopy(index))
        for result in engine.query_many(workload, k, update_index=True):
            stats = result.statistics
            assert stats.n_hits <= stats.n_candidates
            assert stats.n_hits <= stats.n_results == len(result.nodes)

    def test_index_updates_never_add_refinement_work(self, tiny_case):
        # Figure 7: with write-back the sequence refines no more than without.
        _, matrix, index, workload = tiny_case
        totals = {}
        for update in (True, False):
            engine = ReverseTopKEngine(matrix, copy.deepcopy(index))
            totals[update] = sum(
                result.statistics.n_refinement_iterations
                for result in engine.query_many(workload, 4, update_index=update)
            )
        assert totals[True] <= totals[False]

    def test_index_updates_do_not_change_answers(self, tiny_case):
        _, matrix, index, workload = tiny_case
        answers = {}
        for update in (True, False):
            engine = ReverseTopKEngine(matrix, copy.deepcopy(index))
            answers[update] = [
                sorted(result.nodes)
                for result in engine.query_many(workload, 4, update_index=update)
            ]
        assert answers[True] == answers[False]

    @pytest.mark.parametrize("rounding_threshold", [1e-3, 1e-6])
    def test_rounding_keeps_answers_close(self, tiny_case, rounding_threshold):
        # Figure 9: rounding the hub vectors perturbs answers only slightly
        # against the unrounded index, and at the finest threshold not at all.
        graph, matrix, _, workload = tiny_case
        answers = {}
        for omega in (0.0, rounding_threshold):
            params = IndexParams(capacity=8, hub_budget=3, rounding_threshold=omega)
            engine = ReverseTopKEngine(
                matrix, build_index(graph, params, transition=matrix)
            )
            answers[omega] = [set(engine.query(q, 4).nodes) for q in workload]
        similarities = [
            len(rounded & exact) / len(rounded | exact) if rounded | exact else 1.0
            for rounded, exact in zip(answers[rounding_threshold], answers[0.0])
        ]
        assert all(0.0 <= value <= 1.0 for value in similarities)
        if rounding_threshold <= 1e-6:
            assert min(similarities) >= 0.99

    def test_unrounded_answers_are_exact_up_to_ties(
        self, tiny_case, reverse_topk_checker
    ):
        graph, matrix, _, workload = tiny_case
        params = IndexParams(capacity=8, hub_budget=3, rounding_threshold=0.0)
        index = build_index(graph, params, transition=matrix)
        engine = ReverseTopKEngine(matrix, index)
        exact = ProximityLU(matrix).matrix()
        for query in workload:
            reverse_topk_checker(engine.query(query, 4).nodes, exact, query, 4)
