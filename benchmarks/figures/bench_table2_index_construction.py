"""Table 2 — index construction time and space versus the hub budget B.

Regenerates, for each evaluation graph: the construction time, the index size
with and without rounding, the Theorem-1 predicted size, and the cost of the
brute-force alternative (computing the full proximity matrix).
"""

import dataclasses
import time

import pytest

from repro.core import InfeasibleBruteForce, build_index
from repro.core.hubs import select_hubs_by_degree

BENCH_DATASETS = ("web-stanford-cs", "epinions", "web-stanford", "web-google")
HUB_BUDGETS = (5, 10, 20, 40)

#: Power-law exponent of proximity vectors reported by Bahmani et al. and
#: adopted by the paper for the Table 2 predictions.
DEFAULT_BETA = 0.76


def hub_entries_above_threshold(
    n_nodes: int, rounding_threshold: float, *, beta: float = DEFAULT_BETA
) -> float:
    """Entries of one hub vector that survive rounding at ``omega``.

    The ``l*`` bound inside the proof of Theorem 1, for hub vectors whose
    entries follow a power law ``p̂_h(i) ∝ i^(-beta)``:
    ``l* <= (1-beta)^(1/beta) * omega^(-1/beta) * n^(1 - 1/beta)``.
    """
    estimate = ((1.0 - beta) ** (1.0 / beta)) * (
        rounding_threshold ** (-1.0 / beta)
    ) * (n_nodes ** (1.0 - 1.0 / beta))
    return float(min(estimate, n_nodes))


def predicted_index_entries(
    n_nodes: int, capacity: int, n_hubs: int, rounding_threshold: float
) -> float:
    """Theorem 1: ``O(K n + |H| l*)`` stored values in the whole index."""
    per_hub = hub_entries_above_threshold(n_nodes, rounding_threshold) if n_hubs else 0.0
    return float(capacity * n_nodes + n_hubs * per_hub)


def predicted_index_bytes(
    n_nodes: int, capacity: int, n_hubs: int, rounding_threshold: float
) -> float:
    """Theorem 1 in bytes: 8 per top-K lower bound, 16 per hub (index, value) entry."""
    per_hub = hub_entries_above_threshold(n_nodes, rounding_threshold) if n_hubs else 0.0
    return float(capacity * n_nodes * 8 + n_hubs * per_hub * 16)


def table2_index_construction(graph, matrix, params):
    """One row per hub budget, plus the brute-force cost of the full ``P``."""
    base = params.for_graph(graph.n_nodes)
    rows = []
    for budget in HUB_BUDGETS:
        budget_params = dataclasses.replace(base, hub_budget=budget)
        hubs = select_hubs_by_degree(graph, budget)
        started = time.perf_counter()
        index = build_index(graph, budget_params, transition=matrix, hubs=hubs)
        seconds = time.perf_counter() - started
        no_rounding = build_index(
            graph,
            dataclasses.replace(budget_params, rounding_threshold=0.0),
            transition=matrix,
            hubs=hubs,
        )
        rows.append(
            {
                "B": budget,
                "n_hubs": len(hubs),
                "seconds": seconds,
                "actual_bytes": index.total_bytes(),
                "no_rounding_bytes": no_rounding.total_bytes(),
                "predicted_bytes": predicted_index_bytes(
                    graph.n_nodes,
                    budget_params.capacity,
                    len(hubs),
                    max(budget_params.rounding_threshold, 1e-12),
                ),
            }
        )
    started = time.perf_counter()
    baseline = InfeasibleBruteForce(matrix, base.capacity)
    brute = {
        "seconds": time.perf_counter() - started,
        "bytes": float(baseline.storage_bytes()),
    }
    return rows, brute


@pytest.mark.parametrize("dataset", BENCH_DATASETS)
def test_table2_index_construction(benchmark, bench_graphs, bench_transitions, bench_params, write_result_file, dataset):
    """Benchmark one index build per graph and emit the full Table 2 rows."""
    graph = bench_graphs[dataset]
    matrix = bench_transitions[dataset]
    hubs = select_hubs_by_degree(graph, bench_params.hub_budget)

    index = benchmark.pedantic(
        lambda: build_index(graph, bench_params, transition=matrix, hubs=hubs),
        rounds=1,
        iterations=1,
    )

    rows, brute = table2_index_construction(graph, matrix, bench_params)
    write_result_file(
        f"table2_{dataset}",
        graph,
        ["B", "|H|", "time (s)", "no rounding (KB)", "actual (KB)", "predicted (KB)"],
        [
            [
                row["B"],
                row["n_hubs"],
                row["seconds"],
                row["no_rounding_bytes"] / 1024.0,
                row["actual_bytes"] / 1024.0,
                row["predicted_bytes"] / 1024.0,
            ]
            for row in rows
        ],
        title=f"Table 2 — {dataset} (|V|={graph.n_nodes}, |E|={graph.n_edges})",
        note=(
            f"full P (brute force): {brute['seconds']:.3f} s, "
            f"{brute['bytes'] / 1024.0:.1f} KB"
        ),
    )

    # Shape checks mirroring the paper's conclusions:
    # (1) the index is far smaller than the dense proximity matrix;
    # (2) construction is cheaper than computing the full matrix.
    full_matrix_bytes = graph.n_nodes * graph.n_nodes * 8
    assert index.total_bytes() < full_matrix_bytes
    fastest_build = min(row["seconds"] for row in rows)
    assert fastest_build < brute["seconds"] * 1.5


class TestTheorem1Estimates:
    def test_entries_decrease_with_larger_threshold(self):
        few = hub_entries_above_threshold(10_000, 1e-4)
        many = hub_entries_above_threshold(10_000, 1e-6)
        assert few < many

    def test_entries_capped_at_n(self):
        assert hub_entries_above_threshold(100, 1e-12) == 100

    def test_predicted_entries_structure(self):
        total = predicted_index_entries(1000, 50, 10, 1e-6)
        assert total >= 50 * 1000  # at least the K*n lower bound matrix

    def test_predicted_bytes_grow_with_hubs(self):
        small = predicted_index_bytes(1000, 50, 5, 1e-6)
        large = predicted_index_bytes(1000, 50, 50, 1e-6)
        assert large > small

    def test_default_beta_matches_paper(self):
        assert DEFAULT_BETA == pytest.approx(0.76)
