"""Figure 9 — effect of the hub-rounding threshold omega on result quality."""

import copy
import dataclasses

import numpy as np

from repro.core import ReverseTopKEngine, build_index

DATASET = "epinions"  # the denser stand-in, where hub vectors have long tails
K_VALUES = (5, 10, 20)
OMEGAS = (1e-3, 1e-5, 1e-6)
N_QUERIES = 10


def jaccard_similarity(first, second) -> float:
    """``|A ∩ B| / |A ∪ B|``; two empty answers are identical (similarity 1)."""
    a, b = {int(v) for v in first}, {int(v) for v in second}
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def figure9_rounding_effect(graph, matrix, params):
    """Mean Jaccard similarity of rounded-index to exact-index answers, per omega and k."""
    queries = np.random.default_rng(0).integers(0, graph.n_nodes, N_QUERIES).tolist()
    exact_index = build_index(
        graph, dataclasses.replace(params, rounding_threshold=0.0), transition=matrix
    )
    similarity = {}
    for omega in OMEGAS:
        rounded_index = build_index(
            graph, dataclasses.replace(params, rounding_threshold=omega), transition=matrix
        )
        per_k = []
        for k in K_VALUES:
            exact_engine = ReverseTopKEngine(matrix, copy.deepcopy(exact_index))
            rounded_engine = ReverseTopKEngine(matrix, copy.deepcopy(rounded_index))
            per_k.append(
                float(
                    np.mean(
                        [
                            jaccard_similarity(exact.nodes, rounded.nodes)
                            for exact, rounded in zip(
                                exact_engine.query_many(queries, k),
                                rounded_engine.query_many(queries, k),
                            )
                        ]
                    )
                )
            )
        similarity[omega] = per_k
    return similarity


def test_fig9_rounding_effect(benchmark, bench_graphs, bench_transitions, bench_params, write_result_file):
    graph = bench_graphs[DATASET]

    similarity = benchmark.pedantic(
        lambda: figure9_rounding_effect(graph, bench_transitions[DATASET], bench_params),
        rounds=1,
        iterations=1,
    )
    write_result_file(
        "figure9_rounding",
        graph,
        ["k"] + [f"omega={omega:g}" for omega in OMEGAS],
        [
            [k] + [similarity[omega][position] for omega in OMEGAS]
            for position, k in enumerate(K_VALUES)
        ],
        title=f"Figure 9 — rounding effect on result similarity, {DATASET}",
    )

    # Paper's conclusion: omega <= 1e-5 loses essentially nothing; even the
    # coarser thresholds stay close to perfect similarity.
    assert min(similarity[1e-6]) >= 0.99
    assert min(similarity[1e-5]) >= 0.98
    assert min(similarity[1e-3]) >= 0.80
    # Similarity is (weakly) monotone in the rounding threshold.
    for k_position in range(len(K_VALUES)):
        per_omega = [similarity[omega][k_position] for omega in OMEGAS]
        assert per_omega == sorted(per_omega) or max(per_omega) - min(per_omega) < 0.05
