"""Figure 6 — pruning power: candidates, immediate hits and results per query.

The candidate/hit counters come from the vectorized columnar scan; the shape
assertions below are the same ones the seed per-node loop satisfied, so they
double as a pruning-statistics regression check.
"""

import copy

import numpy as np
import pytest

from repro.core import ReverseTopKEngine, build_index

BENCH_DATASETS = ("web-stanford-cs", "epinions", "web-stanford", "web-google")
K_VALUES = (5, 10, 20, 50)
N_QUERIES = 15


def figure6_pruning_power(graph, matrix, params):
    """Mean candidates / immediate hits / results per query, per ``k``."""
    queries = np.random.default_rng(0).integers(0, graph.n_nodes, N_QUERIES).tolist()
    index = build_index(graph, params, transition=matrix)
    candidates, hits, results = [], [], []
    for k in K_VALUES:
        engine = ReverseTopKEngine(matrix, copy.deepcopy(index))
        stats = [r.statistics for r in engine.query_many(queries, k, update_index=True)]
        candidates.append(float(np.mean([s.n_candidates for s in stats])))
        hits.append(float(np.mean([s.n_hits for s in stats])))
        results.append(float(np.mean([s.n_results for s in stats])))
    return candidates, hits, results


@pytest.mark.parametrize("dataset", BENCH_DATASETS)
def test_fig6_pruning_power(benchmark, bench_graphs, bench_transitions, bench_params, write_result_file, dataset):
    graph = bench_graphs[dataset]
    matrix = bench_transitions[dataset]

    candidates, hits, results = benchmark.pedantic(
        lambda: figure6_pruning_power(graph, matrix, bench_params),
        rounds=1,
        iterations=1,
    )
    write_result_file(
        f"figure6_{dataset}",
        graph,
        ["k", "cand", "hits", "result"],
        list(zip(K_VALUES, candidates, hits, results)),
        title=f"Figure 6 — pruning power, {dataset}",
    )

    n = graph.n_nodes
    for k, cand, hit, res in zip(K_VALUES, candidates, hits, results):
        # The paper's observation: candidates are in the order of k — far
        # below n as long as k << n (on these scaled-down graphs k=50 is a
        # sizeable fraction of the graph, so the bound is relative to k).
        assert cand <= max(12 * k, 0.9 * n)
        assert hit <= cand + 1e-9
        assert res >= hit - 1e-9
    # Candidate counts grow with k (more nodes can contain the query in their
    # larger top-k sets).  The comparison only makes sense while k << n; once
    # k approaches the graph size most nodes are decided by the exact
    # shortcut and the candidate count collapses, so restrict the check to
    # the k values small relative to the stand-in graphs.
    meaningful = [c for k, c in zip(K_VALUES, candidates) if k <= n / 5]
    if len(meaningful) >= 2:
        assert meaningful[-1] >= meaningful[0] - 1e-9
