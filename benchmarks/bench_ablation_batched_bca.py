"""Ablation — batched ink propagation (Eq. 8-9) vs. single-node BCA/push.

The paper argues the batched rule reduces both the node-selection cost and the
number of iterations compared to propagating a single node per step ([7], [2]).
This ablation builds a lower-bound approximation of the same quality with each
strategy and compares the work required.
"""

import numpy as np
import scipy.sparse as sp

from repro.core import IndexParams, PropagationKernel
from repro.evaluation.tables import format_table
from repro.rwr import bca_proximity_vector, push_proximity_vector
from repro.utils.timer import Timer

DATASET = "web-stanford-cs"
RESIDUE_TARGET = 0.1
N_SOURCES = 20


def _batched_until_target(matrix, source, params):
    # The batched rule as the paper states it (Eq. 8-9): one whole batch of
    # active nodes per step, run by the propagation kernel until the residue
    # drops to the target (params.residue_threshold).
    hub_mask = np.zeros(matrix.shape[0], dtype=bool)
    collected = PropagationKernel(matrix, hub_mask, params).run([source])
    return int(collected.iterations[0])


def test_ablation_batched_vs_single_node(benchmark, bench_graphs, bench_transitions,
                                         write_result_file):
    graph = bench_graphs[DATASET]
    matrix = sp.csc_matrix(bench_transitions[DATASET])
    params = IndexParams(capacity=50, hub_budget=0, residue_threshold=RESIDUE_TARGET)
    rng = np.random.default_rng(0)
    sources = rng.integers(0, graph.n_nodes, size=N_SOURCES)

    benchmark.pedantic(
        lambda: _batched_until_target(matrix, int(sources[0]), params),
        rounds=3,
        iterations=1,
    )

    with Timer() as batched_timer:
        batched_iterations = [
            _batched_until_target(matrix, int(source), params) for source in sources
        ]
    with Timer() as single_timer:
        single_pushes = [
            bca_proximity_vector(
                matrix, int(source), residue_threshold=RESIDUE_TARGET
            ).iterations
            for source in sources
        ]
    with Timer() as push_timer:
        threshold_pushes = [
            push_proximity_vector(
                matrix, int(source), propagation_threshold=params.propagation_threshold
            ).iterations
            for source in sources
        ]

    rows = [
        ["batched (ours)", float(np.mean(batched_iterations)), batched_timer.elapsed],
        ["single max-residue [7]", float(np.mean(single_pushes)), single_timer.elapsed],
        ["single threshold push [2]", float(np.mean(threshold_pushes)), push_timer.elapsed],
    ]
    text = format_table(
        ["strategy", "mean iterations", "total time (s)"],
        rows,
        title=f"Ablation — ink propagation strategy, {DATASET} ({N_SOURCES} sources)",
    )
    write_result_file("ablation_batched_bca", text)
    print("\n" + text)

    # The batched strategy needs far fewer iterations than single-node pushes
    # to reach the same residue target (each iteration does more work, but the
    # per-iteration selection scan is amortised — the paper's argument).
    assert np.mean(batched_iterations) < np.mean(single_pushes)
