"""Ablation — value of the staircase upper bound (Algorithm 3).

Without the upper bound, every candidate that survives the lower-bound filter
must be refined until its lower bound alone decides membership.  This ablation
counts the refinement iterations saved by the upper-bound confirmation step.
"""

import copy

import numpy as np

from repro.core import ReverseTopKEngine, build_index
from repro.evaluation.tables import format_table
from repro.workloads import uniform_query_workload

DATASET = "web-stanford-cs"
K = 20
N_QUERIES = 20


def _query_without_upper_bound(engine, query, k):
    """Replicate Algorithm 4 but never confirm via the upper bound."""
    from repro.core.lbi import refine_node_state
    from repro.core.pmpn import proximity_to_node

    proximities = proximity_to_node(
        engine.transition, query, alpha=engine.index.params.alpha
    ).proximities
    hub_mask = engine.index.hubs.mask(engine.n_nodes)
    refinements = 0
    results = []
    for node in range(engine.n_nodes):
        state = engine.index.state(node)
        value = float(proximities[node])
        while value >= state.kth_lower_bound(k):
            if state.is_exact:
                results.append(node)
                break
            if not refine_node_state(state, engine.index, engine.transition, hub_mask):
                results.append(node)
                break
            refinements += 1
    return results, refinements


def test_ablation_upper_bound(benchmark, bench_graphs, bench_transitions, bench_params,
                              write_result_file):
    graph = bench_graphs[DATASET]
    matrix = bench_transitions[DATASET]
    index = build_index(graph, bench_params, transition=matrix)
    workload = uniform_query_workload(graph, N_QUERIES, seed=11)

    engine_with = ReverseTopKEngine(matrix, copy.deepcopy(index))
    benchmark(lambda: engine_with.query(int(workload.queries[0]), K, update_index=False))

    with_ub_refinements = []
    with_ub_results = []
    for query in workload:
        stats = engine_with.query(query, K, update_index=False).statistics
        with_ub_refinements.append(stats.n_refinement_iterations)
        with_ub_results.append(stats.n_results)

    engine_without = ReverseTopKEngine(matrix, copy.deepcopy(index))
    without_ub_refinements = []
    without_ub_results = []
    for query in workload:
        results, refinements = _query_without_upper_bound(engine_without, query, K)
        without_ub_refinements.append(refinements)
        without_ub_results.append(len(results))

    text = format_table(
        ["variant", "mean refinements / query", "mean results / query"],
        [
            ["with upper bound (Alg. 3)", float(np.mean(with_ub_refinements)),
             float(np.mean(with_ub_results))],
            ["without upper bound", float(np.mean(without_ub_refinements)),
             float(np.mean(without_ub_results))],
        ],
        title=f"Ablation — staircase upper bound, {DATASET} (k={K})",
    )
    write_result_file("ablation_upper_bound", text)
    print("\n" + text)

    # The upper bound can only reduce refinement work.
    assert np.mean(with_ub_refinements) <= np.mean(without_ub_refinements) + 1e-9
