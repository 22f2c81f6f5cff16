"""Figure 8 — cumulative workload cost: our method vs. IBF vs. FBF."""

import time

import numpy as np

from repro.core import (
    FeasibleBruteForce,
    InfeasibleBruteForce,
    ReverseTopKEngine,
    build_index,
)

DATASET = "web-stanford-cs"
K = 10
N_QUERIES = 50


def figure8_cumulative_cost(graph, matrix, params, queries):
    """Cumulative seconds after each query, offline phase included, per method."""
    started = time.perf_counter()
    index = build_index(graph, params, transition=matrix)
    offline = {"ours": time.perf_counter() - started}
    engine = ReverseTopKEngine(matrix, index)
    ibf = InfeasibleBruteForce(matrix, params.capacity)
    fbf = FeasibleBruteForce(matrix, params.capacity)
    offline["ibf"], offline["fbf"] = ibf.offline_seconds, fbf.offline_seconds

    totals = dict(offline)
    cumulative = {"ours": [], "ibf": [], "fbf": []}
    for query in queries:
        totals["ours"] += engine.query(query, K, update_index=True).statistics.seconds
        for name, baseline in (("ibf", ibf), ("fbf", fbf)):
            started = time.perf_counter()
            baseline.query(query, K)
            totals[name] += time.perf_counter() - started
        for name in cumulative:
            cumulative[name].append(totals[name])
    return cumulative, offline


def test_fig8_cumulative_cost(benchmark, bench_graphs, bench_transitions, bench_params, write_result_file):
    graph = bench_graphs[DATASET]
    queries = np.random.default_rng(7).integers(0, graph.n_nodes, N_QUERIES).tolist()

    cumulative, offline = benchmark.pedantic(
        lambda: figure8_cumulative_cost(
            graph, bench_transitions[DATASET], bench_params, queries
        ),
        rounds=1,
        iterations=1,
    )
    ours = cumulative["ours"]
    ibf = cumulative["ibf"]
    fbf = cumulative["fbf"]
    write_result_file(
        "figure8_cumulative",
        graph,
        ["#queries", "ours (s)", "IBF (s)", "FBF (s)"],
        [
            [count, ours[count - 1], ibf[count - 1], fbf[count - 1]]
            for count in (N_QUERIES // 10, N_QUERIES // 4, N_QUERIES // 2, N_QUERIES)
        ],
        title=f"Figure 8 — cumulative workload cost, {DATASET} (k={K})",
    )

    # Shape checks from the paper: our offline phase is much cheaper than
    # either brute-force variant, and early in the workload our cumulative
    # total is below IBF's (whose full-matrix precomputation dominates) —
    # the crossover story of Figure 8.  At this laptop scale (a few hundred
    # nodes) Python constant factors blur the late-workload ordering, so the
    # final totals are only required to stay within a small factor of the
    # brute-force curves.
    assert offline["ours"] < offline["ibf"]
    assert offline["ours"] < offline["fbf"]
    early = max(1, N_QUERIES // 10) - 1
    assert ours[early] < ibf[early]
    assert ours[early] < fbf[early]
    assert ours[-1] < 5 * (fbf[-1] + 1e-3)
