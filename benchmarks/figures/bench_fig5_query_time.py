"""Figure 5 — average reverse top-k query time vs. k, update vs. no-update."""

import copy

import numpy as np
import pytest

from repro.core import ReverseTopKEngine, build_index

BENCH_DATASETS = ("web-stanford-cs", "epinions", "web-stanford", "web-google")
K_VALUES = (5, 10, 20, 50)
N_QUERIES = 15


def figure5_query_time(matrix, index, queries):
    """Mean query seconds per ``k``, on a fresh index copy per (k, mode)."""
    update_seconds, no_update_seconds = [], []
    for k in K_VALUES:
        for update, bucket in ((True, update_seconds), (False, no_update_seconds)):
            engine = ReverseTopKEngine(matrix, copy.deepcopy(index))
            results = engine.query_many(queries, k, update_index=update)
            bucket.append(float(np.mean([r.statistics.seconds for r in results])))
    return update_seconds, no_update_seconds


@pytest.mark.parametrize("dataset", BENCH_DATASETS)
def test_fig5_query_time(benchmark, bench_graphs, bench_transitions, bench_params, write_result_file, dataset):
    """Benchmark a single k=10 query and emit the full Figure 5 series."""
    graph = bench_graphs[dataset]
    matrix = bench_transitions[dataset]
    index = build_index(graph, bench_params, transition=matrix)
    engine = ReverseTopKEngine(matrix, copy.deepcopy(index))

    benchmark(lambda: engine.query(0, 10, update_index=True))

    # A read-only query on a fresh index copy reports every stage (the
    # benchmark rounds above refined the engine's own index).
    fresh = ReverseTopKEngine(matrix, copy.deepcopy(index))
    vec = fresh.query(1, 10, update_index=False)
    assert {"pmpn", "scan", "refine"} <= set(vec.statistics.stage_seconds)

    queries = np.random.default_rng(0).integers(0, graph.n_nodes, N_QUERIES).tolist()
    update_seconds, no_update_seconds = figure5_query_time(matrix, index, queries)
    write_result_file(
        f"figure5_{dataset}",
        graph,
        ["k", "update (s)", "no-update (s)"],
        list(zip(K_VALUES, update_seconds, no_update_seconds)),
        title=f"Figure 5 — average query time, {dataset}",
    )

    # Shape check: queries stay usable across the whole k range (the paper's
    # figures stay within the same order of magnitude from k=5 to k=100).
    series = update_seconds + no_update_seconds
    assert max(series) < 100 * min(series) + 1.0
