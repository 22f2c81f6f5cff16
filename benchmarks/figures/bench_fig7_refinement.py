"""Figure 7 — per-query cost over a query sequence: index update vs. no-update.

The workload runs through the engine's batched ``query_many`` path, which
shares the columnar index views and the cached CSR transpose across queries;
update-mode refinements flow back into the columns between queries.
"""

import copy

import numpy as np
import pytest

from repro.core import ReverseTopKEngine, build_index

BENCH_DATASETS = ("web-stanford-cs", "web-stanford")
N_QUERIES = 40
K = 20


def figure7_refinement_effect(graph, matrix, params):
    """Per-query seconds and refinement iterations, with and without updates."""
    queries = np.random.default_rng(0).integers(0, graph.n_nodes, N_QUERIES).tolist()
    index = build_index(graph, params, transition=matrix)
    series = {}
    for prefix, update in (("update", True), ("no_update", False)):
        engine = ReverseTopKEngine(matrix, copy.deepcopy(index))
        stats = [
            result.statistics
            for result in engine.query_many(queries, K, update_index=update)
        ]
        series[f"{prefix}_seconds"] = [s.seconds for s in stats]
        series[f"{prefix}_refinements"] = [
            float(s.n_refinement_iterations) for s in stats
        ]
    return series


@pytest.mark.parametrize("dataset", BENCH_DATASETS)
def test_fig7_refinement_effect(benchmark, bench_graphs, bench_transitions, bench_params, write_result_file, dataset):
    graph = bench_graphs[dataset]
    matrix = bench_transitions[dataset]

    series = benchmark.pedantic(
        lambda: figure7_refinement_effect(graph, matrix, bench_params),
        rounds=1,
        iterations=1,
    )
    # Summarised in quarters of the sequence so the refinement trend is
    # visible in text form (the paper plots the full sequence).
    quarter = N_QUERIES // 4
    write_result_file(
        f"figure7_{dataset}",
        graph,
        ["queries", "update (s)", "no-update (s)", "update refits", "no-update refits"],
        [
            [f"{start}-{start + quarter - 1}"]
            + [
                float(np.mean(series[name][start : start + quarter]))
                for name in (
                    "update_seconds",
                    "no_update_seconds",
                    "update_refinements",
                    "no_update_refinements",
                )
            ]
            for start in range(0, N_QUERIES, quarter)
        ],
        title=f"Figure 7 — refinement effect, {dataset} (k={K})",
    )

    update_refinements = series["update_refinements"]
    no_update_refinements = series["no_update_refinements"]
    # The paper's observation: as the workload progresses, the updated index
    # needs no more (and typically less) refinement than the static one...
    assert sum(update_refinements) <= sum(no_update_refinements) + 1e-9
    # ...and the benefit shows up in the later part of the sequence, where the
    # update policy does no more refinement work than the static index on the
    # very same queries (individual hub-node queries can still be heavy, so
    # the comparison is against no-update, not against the first half).
    half = len(update_refinements) // 2
    assert (
        np.sum(update_refinements[half:])
        <= np.sum(no_update_refinements[half:]) + 1e-9
    )
