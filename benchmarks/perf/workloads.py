"""Frozen workload shapes, metric tables and seed-0 fingerprints.

Everything a later change could be tempted to tune lives here and nowhere
else: graph sizes, rank bands, depths, the measured-seconds default, the
metric names with unit / direction / regression bound, and the SHA-256
fingerprints of seed 0's inputs.  A change that claims a gain may not edit
this file (see README.md, "Rules").
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

#: Seconds of timed stream per run (``--seconds`` default; BENCHMARK.json's
#: ``run_seconds`` must agree).
RUN_SECONDS = 15

#: Set-ups per untraced run; ``setup_s`` is their median.
N_SETUPS = 3

#: Untimed queries issued after set-up so lazy caches fill before timing.
WARMUP_QUERIES = 20

#: Queries sampled per workload for the oracle (wire_churn: split over 3 epochs).
VERIFY_QUERIES = 21

#: Rank strata the query draws are balanced over (see inputs.stratified_stream).
N_STRATA = 20


@dataclass(frozen=True)
class Workload:
    """One workload's frozen shape.

    ``rank_band`` is the in-degree-rank interval (fractions of ``n``, rank 0 =
    highest in-degree) queries are drawn from; ``min_queries`` is both the
    floor of timed queries (the run continues past ``--seconds`` until it is
    met) and the prefix over which the exact counts are summed, so counts
    repeat exactly however fast the machine is.
    """

    name: str
    why: str
    kind: str  # "engine" | "service" | "wire"
    n_nodes: int
    k: int
    rank_band: Tuple[float, float]
    min_queries: int
    update_index: bool = False
    #: The dataset is fixed per workload; ``--seed`` drives the requests.
    #: Query cost varies by orders of magnitude with the query node's place
    #: in the graph, so redrawing a graph this small per seed moves every
    #: metric by more than any bound (measured: 23 % on mid_k50_update).
    graph_seed: int = 0
    #: A finite stream is never repeated (repeats would be answered from
    #: written-back bounds or the result cache); a cyclic one redraws.
    cyclic: bool = False
    #: The paper's index parameters (IndexParams field names).
    params: Tuple[Tuple[str, object], ...] = ()
    #: Deployment shape passed to ``from_graph`` (service/wire kinds).
    deployment: Tuple[Tuple[str, object], ...] = ()
    # wire_churn only
    hot_pool: int = 0
    zipf_s: float = 0.0
    connections: int = 0
    queries_per_batch: int = 0
    ops_per_batch: int = 0
    #: Rank band the *sources* of edited edges come from.  One popular source
    #: in a batch invalidates over a quarter of all states and escalates the
    #: maintainer to a full rebuild (1.2-1.7 s against 0.2 s targeted), so
    #: unrestricted draws make every metric depend on whether the seed hit one.
    update_source_band: Tuple[float, float] = (0.5, 1.0)
    #: End-to-end metrics beyond the ones every workload emits.
    extra_metrics: Tuple[str, ...] = ()


_WEB_PARAMS = (("capacity", 50), ("hub_budget", 50))

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # why: ordinary nodes at shallow k — the scan decides everything,
        # PMPN dominates; bypasses refine, fallback, cache and net.
        Workload(
            name="tail_k10",
            why=(
                "ordinary nodes at shallow k: PMPN + scan do all the work; "
                "bypasses refine, exact fallback, cache and net"
            ),
            kind="engine",
            n_nodes=4000,
            k=10,
            rank_band=(0.01, 1.0),
            min_queries=1000,
            cyclic=True,
            params=_WEB_PARAMS,
            extra_metrics=("query_p99_ms",),
        ),
        # why: mid-popular nodes at k = K with the paper's update policy —
        # the refine loop is nearly all of wall and refinements are written
        # back, so a read-side trick that taxes write-back shows here.
        Workload(
            name="mid_k50_update",
            why=(
                "mid-popular nodes at k=K with write-back: the refine loop "
                "is nearly all of wall; the index's write path"
            ),
            kind="engine",
            n_nodes=1600,
            k=50,
            rank_band=(0.10, 0.25),
            # The whole band (240 nodes less the warm-up): every seed times
            # the same queries in another order.  A 200-of-220 cut moved p50
            # by 10 % between seeds; refine cost is that uneven inside a band.
            min_queries=220,
            update_index=True,
            params=_WEB_PARAMS,
        ),
        # why: the ROADMAP's "0.2 qps wall" at a size that fits a run — weak
        # index, out-of-core shards; every query burns the refinement budget
        # on one candidate and then pays a full power-method solve.
        Workload(
            name="memmap_k1",
            why=(
                "weak index on memmap shards, streamed from disk: every "
                "query exhausts refinement then pays an exact power-method solve"
            ),
            kind="service",
            n_nodes=4000,
            k=1,
            rank_band=(0.01, 1.0),
            min_queries=200,
            params=(
                ("capacity", 16),
                ("hub_budget", 0),
                ("propagation_threshold", 5e-3),
                ("residue_threshold", 0.3),
            ),
            deployment=(("n_shards", 4), ("memory_budget", 0)),
        ),
        # why: the only workload through net + serving cache + dynamic
        # maintainer + rollover; the hot pool fits the result cache, which
        # every update batch's version bump empties.
        Workload(
            name="wire_churn",
            why=(
                "HTTP server child, Zipf hot pool that fits the cache, update "
                "batches as barriers: net, cache, maintainer and rollover"
            ),
            kind="wire",
            n_nodes=3000,
            k=10,
            rank_band=(0.01, 1.0),
            min_queries=1000,
            cyclic=True,
            params=_WEB_PARAMS,
            hot_pool=300,
            zipf_s=1.1,
            connections=2,
            queries_per_batch=333,
            ops_per_batch=8,
            extra_metrics=("query_p99_ms", "update_p50_ms"),
        ),
    )
}


def smoke(workload: Workload) -> Workload:
    """The tier-1 shape: same code paths, n=300 and 40 timed queries."""
    return replace(
        workload,
        n_nodes=300,
        min_queries=40,
        hot_pool=min(workload.hot_pool, 40),
        queries_per_batch=min(workload.queries_per_batch, 15),
    )


@dataclass(frozen=True)
class Metric:
    unit: str
    better: str  # "lower" | "higher"
    #: End-to-end: share of the base median the metric may worsen before
    #: compare.py calls a regression.  ``None`` for per-layer metrics.
    bound: Optional[float] = None
    #: Declared in BENCHMARK.json (every workload emits it, never zero).
    contract: bool = False
    note: str = ""


#: Emitted by every workload.
COMMON_END_TO_END = (
    "setup_s",
    "query_p50_ms",
    "query_p95_ms",
    "throughput_qps",
    "peak_rss_mb",
    "index_mb",
    "error_share",
)

END_TO_END: Dict[str, Metric] = {
    "setup_s": Metric("s", "lower", 0.25, True),
    "query_p50_ms": Metric("ms", "lower", 0.25, True),
    "query_p95_ms": Metric("ms", "lower", 0.25, True),
    "query_p99_ms": Metric("ms", "lower", 0.25),
    "throughput_qps": Metric("1/s", "higher", 0.20, True),
    "update_p50_ms": Metric("ms", "lower", 0.25),
    "peak_rss_mb": Metric("MiB", "lower", 0.25, True),
    "index_mb": Metric("MiB", "lower", 0.01, True),
    # Absolute: any rise is a regression (compare.py special-cases it).
    "error_share": Metric("ratio", "lower", 0.0),
}


def end_to_end_for(workload: Workload) -> Tuple[str, ...]:
    """The end-to-end metrics ``workload`` emits, in table order."""
    wanted = set(COMMON_END_TO_END) | set(workload.extra_metrics)
    return tuple(name for name in END_TO_END if name in wanted)


_T, _C = "ms", "count"

#: Per-layer metrics: from the traced run's span self-times, or exact counts
#: (marked "exact" in the note) read from returned statistics, which the
#: untraced run reports too.  ``note`` names the end-to-end metric each
#: should move and where.
PER_LAYER: Dict[str, Metric] = {
    "graph.ingest_s": Metric("s", "lower", note="setup_s @ memmap_k1"),
    "graph.transition_s": Metric("s", "lower", note="setup_s @ all (small)"),
    "lbi.hub_matrix_s": Metric("s", "lower", note="setup_s"),
    "lbi.bca_s": Metric("s", "lower", note="setup_s"),
    "lbi.materialize_s": Metric("s", "lower", note="setup_s, peak_rss_mb"),
    "lbi.persist_s": Metric("s", "lower", note="setup_s @ memmap_k1"),
    "lbi.exact_share": Metric("ratio", "higher", note="exact; index_mb, refine load"),
    "pmpn.ms_p50": Metric(_T, "lower", note="query_p50_ms @ tail_k10"),
    "pmpn.iterations_mean": Metric(_C, "lower", note="exact; query_p50_ms @ tail_k10"),
    "query.scan_ms_p50": Metric(_T, "lower", note="query_p50_ms @ tail_k10"),
    "query.pruned_share": Metric("ratio", "higher", note="exact; candidates reaching refine"),
    "query.candidates_per_query": Metric(_C, "lower", note="exact; refine load"),
    "query.hit_share": Metric("ratio", "higher", note="exact; staircase hits / candidates"),
    "query.refined_per_query": Metric(_C, "lower", note="exact; query_p50_ms @ mid_k50_update"),
    "query.refine_iterations_per_query": Metric(_C, "lower", note="exact; query_p95_ms @ mid_k50_update"),
    "query.refine_ms_per_iteration": Metric(_T, "lower", note="query_p50_ms @ mid_k50_update, memmap_k1"),
    "query.writebacks": Metric(_C, "lower", note="exact; index version delta @ mid_k50_update"),
    "query.fallbacks_per_query": Metric(_C, "lower", note="exact; query_p50_ms @ memmap_k1"),
    "query.fallback_share": Metric("ratio", "lower", note="exact; fallbacks / refined = refinement wasted"),
    "rwr.power_ms_p50": Metric(_T, "lower", note="query_p50_ms @ memmap_k1"),
    "sharding.scan_ms_p50": Metric(_T, "lower", note="query_p50_ms @ memmap_k1"),
    "sharding.resident_mb": Metric("MiB", "lower", note="peak_rss_mb @ memmap_k1"),
    "sharding.total_mb": Metric("MiB", "lower", note="index_mb @ memmap_k1"),
    "serving.serve_ms_p50": Metric(_T, "lower", note="query_p50_ms @ wire_churn"),
    "serving.plan_ms_p50": Metric(_T, "lower", note="query_p50_ms @ wire_churn"),
    "serving.cache_hit_share": Metric("ratio", "higher", note="exact; throughput_qps @ wire_churn"),
    "serving.engine_queries": Metric(_C, "lower", note="exact; throughput_qps @ wire_churn"),
    "serving.dedup_count": Metric(_C, "higher", note="exact; wire_churn"),
    "dynamic.apply_ms_p50": Metric(_T, "lower", note="update_p50_ms @ wire_churn"),
    "dynamic.invalidated_per_batch": Metric(_C, "lower", note="exact; update_p50_ms"),
    "dynamic.changed_columns_per_batch": Metric(_C, "lower", note="update_p50_ms"),
    "dynamic.full_rebuilds": Metric(_C, "lower", note="exact; update_p50_ms"),
    "net.overhead_ms_p50": Metric(_T, "lower", note="query_p50_ms @ wire_churn (>90 %)"),
    "net.rollover_ms_p50": Metric(_T, "lower", note="update_p50_ms @ wire_churn"),
    "net.coalesced_share": Metric("ratio", "higher", note="exact; wire_churn"),
    "net.shed_count": Metric(_C, "lower", note="exact; error_share @ wire_churn"),
    "net.response_bytes_mean": Metric("B", "lower", note="query_p50_ms @ wire_churn"),
    "obs.trace_overhead_share": Metric("ratio", "lower", note="none: cost of the traced run"),
}

#: SHA-256 of seed 0's inputs per workload: (graph CSR arrays, request stream).
#: A run at seed 0 whose inputs hash differently fails, so a changed
#: generator can never pass as a speed-up.  Regenerate only in a change that
#: alters nothing else: ``python benchmarks/perf/run.py --fingerprints``.
FINGERPRINTS: Dict[str, Tuple[str, str]] = {
    "tail_k10": (
        "6b15952b72ff62290867d4ce3b2ebe20ef4cf573c975b3db8a371489dbd2b4c6",
        "38520e97e8ed723172b315857468bd7e8556bd30e3a2d119eb7a030a29a5dee2",
    ),
    "mid_k50_update": (
        "34276f158f6c965d27ac8e950ecd3a0927883add3cc1e25cabfdbacdafcff2c2",
        "a944933e3366ab7d3bda4d7cb39bb551819345d82d763142ada284a56f6512da",
    ),
    "memmap_k1": (
        "1a9d5cbf304e6a3253bcd46607103c90f41cc35a4e5ef60e2b26520ac36a8ddc",
        "77729f6db9c7681228b378a7c33241f7e45d6859d129d64c932907509742f5fe",
    ),
    "wire_churn": (
        "e3790500cb5632a851a565d04a4ab50561fb0206042c980ae8efc8f10ee8df26",
        "6d63cb05ba0c3a29ac363e6f668826eca66b8934f0aa4fc5a06986f8c25c383c",
    ),
}
