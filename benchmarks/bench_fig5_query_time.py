"""Figure 5 — average reverse top-k query time vs. k, update vs. no-update."""

import copy

import pytest

from repro.core import ReverseTopKEngine, build_index
from repro.evaluation import figure5_query_time

BENCH_DATASETS = ("web-stanford-cs", "epinions", "web-stanford", "web-google")
K_VALUES = (5, 10, 20, 50)
N_QUERIES = 15


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

    result = figure5_query_time(
        graph,
        k_values=K_VALUES,
        n_queries=N_QUERIES,
        params=bench_params,
        graph_name=dataset,
    )
    write_result_file(f"figure5_{dataset}", result.text)
    print("\n" + result.text)

    # Shape check: queries stay usable across the whole k range (the paper's
    # figures stay within the same order of magnitude from k=5 to k=100).
    series = result.data["update_seconds"] + result.data["no_update_seconds"]
    assert max(series) < 100 * min(series) + 1.0
