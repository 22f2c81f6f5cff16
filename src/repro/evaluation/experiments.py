"""One function per table / figure of the paper's evaluation section.

Every function takes a graph (typically one of the scaled-down dataset
stand-ins of :mod:`repro.graph.datasets`), runs the corresponding experiment,
and returns an :class:`ExperimentResult` bundling the raw measurements with a
pre-formatted text table matching the paper's presentation.  The functions are
deliberately small-graph-friendly so the pytest benchmarks can call them with
tight budgets; pass larger graphs / workloads to approach the paper's scale.

| Function | Paper artefact |
|---|---|
| :func:`table2_index_construction` | Table 2 — index construction time & space |
| :func:`figure5_query_time` | Figure 5 — query time vs. k, update/no-update |
| :func:`figure6_pruning_power` | Figure 6 — candidates / hits / results vs. k |
| :func:`figure7_refinement_effect` | Figure 7 — per-query cost over a workload |
| :func:`figure8_cumulative_cost` | Figure 8 — cumulative cost vs. IBF / FBF |
| :func:`figure9_rounding_effect` | Figure 9 — result similarity vs. omega |
| :func:`table3_author_popularity` | Table 3 — longest reverse top-5 lists |
| :func:`spam_detection_stats` | §5.4 spam detection percentages |
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..apps.coauthor import AuthorPopularityAnalyzer
from ..apps.spam import SpamDetector
from ..core.baseline import FeasibleBruteForce, InfeasibleBruteForce
from ..core.config import IndexParams
from ..core.estimates import DEFAULT_BETA, predicted_index_bytes
from ..core.hubs import select_hubs_by_degree
from ..core.sharding import build_index
from ..core.query import ReverseTopKEngine
from ..graph.digraph import DiGraph
from ..graph.transition import transition_matrix
from ..utils.timer import Timer
from ..workloads.queries import QueryWorkload, all_nodes_workload, uniform_query_workload
from .metrics import jaccard_similarity
from .tables import format_series, format_table


@dataclass
class ExperimentResult:
    """Raw measurements plus a formatted rendering of one experiment.

    Attributes
    ----------
    name:
        Experiment identifier ("table2", "figure5", ...).
    data:
        Raw measurement structure (shape differs per experiment; documented in
        each experiment function).
    text:
        Pre-formatted table ready to print, in the layout of the paper.
    """

    name: str
    data: Dict[str, Any] = field(default_factory=dict)
    text: str = ""

    def __str__(self) -> str:
        return self.text


# --------------------------------------------------------------------------- #
# Table 2 — index construction time and space
# --------------------------------------------------------------------------- #
def table2_index_construction(
    graph: DiGraph,
    *,
    hub_budgets: Sequence[int] = (10, 25, 50, 100),
    params: Optional[IndexParams] = None,
    graph_name: str = "graph",
    include_brute_force: bool = True,
    beta: float = DEFAULT_BETA,
) -> ExperimentResult:
    """Table 2: index construction time / size for several hub budgets ``B``.

    ``data`` layout::

        {"rows": [{"B", "n_hubs", "seconds", "actual_bytes",
                   "no_rounding_bytes", "predicted_bytes"}, ...],
         "brute_force": {"seconds", "bytes"} | None}
    """
    matrix = transition_matrix(graph)
    base = params if params is not None else IndexParams()
    base = base.for_graph(graph.n_nodes)

    rows: List[Dict[str, float]] = []
    for budget in hub_budgets:
        budget_params = _with(base, hub_budget=int(budget))
        hubs = select_hubs_by_degree(graph, budget_params.hub_budget)
        timer = Timer()
        with timer:
            index = build_index(graph, budget_params, transition=matrix, hubs=hubs)
        no_rounding_params = _with(budget_params, rounding_threshold=0.0)
        no_rounding_index = build_index(
            graph, no_rounding_params, transition=matrix, hubs=hubs
        )
        rows.append(
            {
                "B": int(budget),
                "n_hubs": len(hubs),
                "seconds": timer.elapsed,
                "actual_bytes": index.total_bytes(),
                "no_rounding_bytes": no_rounding_index.total_bytes(),
                "predicted_bytes": predicted_index_bytes(
                    graph.n_nodes,
                    budget_params.capacity,
                    len(hubs),
                    max(budget_params.rounding_threshold, 1e-12),
                    beta=beta,
                ),
            }
        )

    brute: Optional[Dict[str, float]] = None
    if include_brute_force:
        timer = Timer()
        with timer:
            baseline = InfeasibleBruteForce(matrix, base.capacity)
        brute = {"seconds": timer.elapsed, "bytes": float(baseline.storage_bytes())}

    headers = ["B", "|H|", "time (s)", "no rounding (KB)", "actual (KB)", "predicted (KB)"]
    table_rows = [
        [
            row["B"],
            row["n_hubs"],
            row["seconds"],
            row["no_rounding_bytes"] / 1024.0,
            row["actual_bytes"] / 1024.0,
            row["predicted_bytes"] / 1024.0,
        ]
        for row in rows
    ]
    title = f"Table 2 — {graph_name} (|V|={graph.n_nodes}, |E|={graph.n_edges})"
    text = format_table(headers, table_rows, title=title)
    if brute is not None:
        text += (
            f"\nfull P (brute force): {brute['seconds']:.3f} s, "
            f"{brute['bytes'] / 1024.0:.1f} KB"
        )
    return ExperimentResult("table2", {"rows": rows, "brute_force": brute}, text)


# --------------------------------------------------------------------------- #
# Figure 5 — query time vs k, update vs no-update
# --------------------------------------------------------------------------- #
def figure5_query_time(
    graph: DiGraph,
    *,
    k_values: Sequence[int] = (5, 10, 20, 50, 100),
    n_queries: int = 50,
    params: Optional[IndexParams] = None,
    seed: int = 0,
    graph_name: str = "graph",
) -> ExperimentResult:
    """Figure 5: average reverse top-k query time vs. ``k``, update vs. no-update.

    ``data`` layout::

        {"k": [...], "update_seconds": [...], "no_update_seconds": [...]}
    """
    matrix = transition_matrix(graph)
    base = (params if params is not None else IndexParams()).for_graph(graph.n_nodes)
    k_values = [k for k in k_values if k <= base.capacity and k <= graph.n_nodes]
    workload = uniform_query_workload(graph, n_queries, seed=seed)
    reference_index = build_index(graph, base, transition=matrix)

    update_seconds: List[float] = []
    no_update_seconds: List[float] = []
    for k in k_values:
        for update, bucket in ((True, update_seconds), (False, no_update_seconds)):
            engine = ReverseTopKEngine(matrix, copy.deepcopy(reference_index))
            results = engine.query_many(list(workload), k, update_index=update)
            bucket.append(float(np.mean([r.statistics.seconds for r in results])))

    data = {
        "k": list(k_values),
        "update_seconds": update_seconds,
        "no_update_seconds": no_update_seconds,
    }
    text = format_series(
        "k",
        {"update (s)": update_seconds, "no-update (s)": no_update_seconds},
        list(k_values),
        title=f"Figure 5 — average query time, {graph_name}",
    )
    return ExperimentResult("figure5", data, text)


# --------------------------------------------------------------------------- #
# Figure 6 — pruning power: candidates, hits, results
# --------------------------------------------------------------------------- #
def figure6_pruning_power(
    graph: DiGraph,
    *,
    k_values: Sequence[int] = (5, 10, 20, 50, 100),
    n_queries: int = 50,
    params: Optional[IndexParams] = None,
    seed: int = 0,
    graph_name: str = "graph",
) -> ExperimentResult:
    """Figure 6: average candidates / immediate hits / results per query vs. ``k``.

    ``data`` layout::

        {"k": [...], "candidates": [...], "hits": [...], "results": [...]}
    """
    matrix = transition_matrix(graph)
    base = (params if params is not None else IndexParams()).for_graph(graph.n_nodes)
    k_values = [k for k in k_values if k <= base.capacity and k <= graph.n_nodes]
    workload = uniform_query_workload(graph, n_queries, seed=seed)
    reference_index = build_index(graph, base, transition=matrix)

    candidates: List[float] = []
    hits: List[float] = []
    results: List[float] = []
    for k in k_values:
        engine = ReverseTopKEngine(matrix, copy.deepcopy(reference_index))
        stats = [r.statistics for r in engine.query_many(list(workload), k, update_index=True)]
        candidates.append(float(np.mean([s.n_candidates for s in stats])))
        hits.append(float(np.mean([s.n_hits for s in stats])))
        results.append(float(np.mean([s.n_results for s in stats])))

    data = {"k": list(k_values), "candidates": candidates, "hits": hits, "results": results}
    text = format_series(
        "k",
        {"cand": candidates, "hits": hits, "result": results},
        list(k_values),
        title=f"Figure 6 — pruning power, {graph_name}",
    )
    return ExperimentResult("figure6", data, text)


# --------------------------------------------------------------------------- #
# Figure 7 — effect of index refinement across a query sequence
# --------------------------------------------------------------------------- #
def figure7_refinement_effect(
    graph: DiGraph,
    *,
    k: int = 20,
    n_queries: int = 100,
    params: Optional[IndexParams] = None,
    seed: int = 0,
    graph_name: str = "graph",
) -> ExperimentResult:
    """Figure 7: per-query cost across a workload, with and without index updates.

    ``data`` layout::

        {"query_id": [...], "update_seconds": [...], "no_update_seconds": [...],
         "update_refinements": [...], "no_update_refinements": [...]}
    """
    matrix = transition_matrix(graph)
    base = (params if params is not None else IndexParams()).for_graph(graph.n_nodes)
    k = min(k, base.capacity, graph.n_nodes)
    workload = uniform_query_workload(graph, n_queries, seed=seed)
    reference_index = build_index(graph, base, transition=matrix)

    series: Dict[str, List[float]] = {
        "update_seconds": [],
        "no_update_seconds": [],
        "update_refinements": [],
        "no_update_refinements": [],
    }
    for update in (True, False):
        engine = ReverseTopKEngine(matrix, copy.deepcopy(reference_index))
        prefix = "update" if update else "no_update"
        for result in engine.query_many(list(workload), k, update_index=update):
            stats = result.statistics
            series[f"{prefix}_seconds"].append(stats.seconds)
            series[f"{prefix}_refinements"].append(float(stats.n_refinement_iterations))

    data = {"query_id": list(range(len(workload))), **series}
    # Summarise in quartiles of the sequence so the refinement trend is visible
    # in text form (the paper plots the full sequence).
    quarters = max(1, len(workload) // 4)
    rows = []
    for start in range(0, len(workload), quarters):
        stop = min(start + quarters, len(workload))
        rows.append(
            [
                f"{start}-{stop - 1}",
                float(np.mean(series["update_seconds"][start:stop])),
                float(np.mean(series["no_update_seconds"][start:stop])),
                float(np.mean(series["update_refinements"][start:stop])),
                float(np.mean(series["no_update_refinements"][start:stop])),
            ]
        )
    text = format_table(
        ["queries", "update (s)", "no-update (s)", "update refits", "no-update refits"],
        rows,
        title=f"Figure 7 — refinement effect, {graph_name} (k={k})",
    )
    return ExperimentResult("figure7", data, text)


# --------------------------------------------------------------------------- #
# Figure 8 — cumulative workload cost vs IBF / FBF
# --------------------------------------------------------------------------- #
def figure8_cumulative_cost(
    graph: DiGraph,
    *,
    k: int = 10,
    params: Optional[IndexParams] = None,
    workload: Optional[QueryWorkload] = None,
    graph_name: str = "graph",
) -> ExperimentResult:
    """Figure 8: cumulative cost of our method vs. IBF and FBF over a workload.

    ``data`` layout::

        {"n_queries": [...],
         "ours": [...], "ibf": [...], "fbf": [...],          # cumulative seconds
         "offline": {"ours", "ibf", "fbf"}}
    """
    matrix = transition_matrix(graph)
    base = (params if params is not None else IndexParams()).for_graph(graph.n_nodes)
    k = min(k, base.capacity, graph.n_nodes)
    if workload is None:
        workload = all_nodes_workload(graph, k=k)

    timer = Timer()
    with timer:
        index = build_index(graph, base, transition=matrix)
    ours_offline = timer.elapsed
    engine = ReverseTopKEngine(matrix, index)

    ibf = InfeasibleBruteForce(matrix, base.capacity)
    fbf = FeasibleBruteForce(matrix, base.capacity)

    ours_cumulative: List[float] = []
    ibf_cumulative: List[float] = []
    fbf_cumulative: List[float] = []
    ours_total, ibf_total, fbf_total = ours_offline, ibf.offline_seconds, fbf.offline_seconds
    for query in workload:
        ours_total += engine.query(query, k, update_index=True).statistics.seconds
        with Timer() as ibf_timer:
            ibf.query(query, k)
        ibf_total += ibf_timer.elapsed
        with Timer() as fbf_timer:
            fbf.query(query, k)
        fbf_total += fbf_timer.elapsed
        ours_cumulative.append(ours_total)
        ibf_cumulative.append(ibf_total)
        fbf_cumulative.append(fbf_total)

    data = {
        "n_queries": list(range(1, len(workload) + 1)),
        "ours": ours_cumulative,
        "ibf": ibf_cumulative,
        "fbf": fbf_cumulative,
        "offline": {"ours": ours_offline, "ibf": ibf.offline_seconds, "fbf": fbf.offline_seconds},
    }
    checkpoints = sorted(
        {max(1, len(workload) // 10), len(workload) // 4, len(workload) // 2, len(workload)}
    )
    rows = [
        [
            count,
            ours_cumulative[count - 1],
            ibf_cumulative[count - 1],
            fbf_cumulative[count - 1],
        ]
        for count in checkpoints
        if count >= 1
    ]
    text = format_table(
        ["#queries", "ours (s)", "IBF (s)", "FBF (s)"],
        rows,
        title=f"Figure 8 — cumulative workload cost, {graph_name} (k={k})",
    )
    return ExperimentResult("figure8", data, text)


# --------------------------------------------------------------------------- #
# Figure 9 — effect of hub rounding on result quality
# --------------------------------------------------------------------------- #
def figure9_rounding_effect(
    graph: DiGraph,
    *,
    k_values: Sequence[int] = (5, 10, 20, 50, 100),
    rounding_thresholds: Sequence[float] = (1e-4, 1e-5, 1e-6),
    n_queries: int = 30,
    params: Optional[IndexParams] = None,
    seed: int = 0,
    graph_name: str = "graph",
) -> ExperimentResult:
    """Figure 9: Jaccard similarity between rounded-index and exact-index results.

    ``data`` layout::

        {"k": [...], "omega": [...],
         "similarity": {omega: [similarity per k]}}
    """
    matrix = transition_matrix(graph)
    base = (params if params is not None else IndexParams()).for_graph(graph.n_nodes)
    k_values = [k for k in k_values if k <= base.capacity and k <= graph.n_nodes]
    workload = uniform_query_workload(graph, n_queries, seed=seed)

    exact_params = _with(base, rounding_threshold=0.0)
    exact_index = build_index(graph, exact_params, transition=matrix)

    similarity: Dict[float, List[float]] = {}
    for omega in rounding_thresholds:
        rounded_index = build_index(
            graph, _with(base, rounding_threshold=float(omega)), transition=matrix
        )
        per_k: List[float] = []
        for k in k_values:
            exact_engine = ReverseTopKEngine(matrix, copy.deepcopy(exact_index))
            rounded_engine = ReverseTopKEngine(matrix, copy.deepcopy(rounded_index))
            values = [
                jaccard_similarity(exact_result.nodes, rounded_result.nodes)
                for exact_result, rounded_result in zip(
                    exact_engine.query_many(list(workload), k),
                    rounded_engine.query_many(list(workload), k),
                )
            ]
            per_k.append(float(np.mean(values)))
        similarity[float(omega)] = per_k

    data = {"k": list(k_values), "omega": [float(w) for w in rounding_thresholds], "similarity": similarity}
    text = format_series(
        "k",
        {f"omega={omega:g}": values for omega, values in similarity.items()},
        list(k_values),
        title=f"Figure 9 — rounding effect on result similarity, {graph_name}",
    )
    return ExperimentResult("figure9", data, text)


# --------------------------------------------------------------------------- #
# Table 3 — author popularity in a co-authorship network
# --------------------------------------------------------------------------- #
def table3_author_popularity(
    graph: DiGraph,
    *,
    k: int = 5,
    top: int = 10,
    params: Optional[IndexParams] = None,
    graph_name: str = "coauthorship",
) -> ExperimentResult:
    """Table 3: the authors with the longest reverse top-k lists vs. their degree.

    ``data`` layout::

        {"rows": [{"author", "name", "reverse_top_k_size", "n_coauthors"}, ...]}
    """
    analyzer = AuthorPopularityAnalyzer(graph, k=k, params=params)
    ranking = analyzer.ranking(top=top)
    rows = [
        {
            "author": record.author,
            "name": record.name,
            "reverse_top_k_size": record.reverse_top_k_size,
            "n_coauthors": record.n_coauthors,
        }
        for record in ranking
    ]
    text = format_table(
        ["author", f"reverse top-{k} size", "# coauthors"],
        [[row["name"], row["reverse_top_k_size"], row["n_coauthors"]] for row in rows],
        title=f"Table 3 — longest reverse top-{k} lists, {graph_name}",
    )
    return ExperimentResult("table3", {"rows": rows}, text)


# --------------------------------------------------------------------------- #
# Section 5.4 — spam detection statistics
# --------------------------------------------------------------------------- #
def spam_detection_stats(
    graph: DiGraph,
    labels: np.ndarray,
    *,
    k: int = 5,
    max_queries_per_class: Optional[int] = 100,
    params: Optional[IndexParams] = None,
    graph_name: str = "webspam",
) -> ExperimentResult:
    """Section 5.4: spam composition of reverse top-k sets of spam vs. normal hosts.

    ``data`` layout::

        {"mean_spam_ratio_for_spam", "mean_spam_ratio_for_normal",
         "spam_queries", "normal_queries", "k"}
    """
    detector = SpamDetector(graph, labels, k=k, params=params)
    report = detector.evaluate(max_queries_per_class=max_queries_per_class)
    data = {
        "k": report.k,
        "spam_queries": report.spam_queries,
        "normal_queries": report.normal_queries,
        "mean_spam_ratio_for_spam": report.mean_spam_ratio_for_spam,
        "mean_spam_ratio_for_normal": report.mean_spam_ratio_for_normal,
    }
    text = format_table(
        ["query class", "#queries", "mean spam ratio in reverse top-k"],
        [
            ["spam", report.spam_queries, report.mean_spam_ratio_for_spam],
            ["normal", report.normal_queries, report.mean_spam_ratio_for_normal],
        ],
        title=f"Section 5.4 — spam detection, {graph_name} (k={k})",
    )
    return ExperimentResult("spam", data, text)


def _with(params: IndexParams, **overrides: object) -> IndexParams:
    """Return a copy of ``params`` with the given fields replaced."""
    import dataclasses

    return dataclasses.replace(params, **overrides)
