"""From a pass's raw record to named metrics: end to end, per layer, layer shares.

A pass record (see ``worker.library_pass`` / ``worker.wire_pass``) holds
caller-side latencies, exact counts read from the program's returned
statistics, and facts about the built index.  The traced pass adds the
benchmark's spans — the worker's own and, for the wire workload, the server
child's — from which the timing half of the per-layer metrics is taken as
self time.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from . import stats, trace as tracing
from .workloads import END_TO_END, Workload, end_to_end_for

#: Per-layer set-up seconds: metric -> span name (summed self time before
#: the first request).  ``index.build_report`` wins where the build has one.
_SETUP_SPANS = {
    "graph.ingest_s": "graph.ingest",
    "graph.transition_s": "graph.transition",
    "lbi.hub_matrix_s": "lbi.hub_matrix",
    "lbi.bca_s": "lbi.bca",
    "lbi.materialize_s": "lbi.materialize",
    "lbi.persist_s": "lbi.persist",
}
_BUILD_REPORT_STAGES = {
    "lbi.hub_matrix_s": "hub_matrix",
    "lbi.bca_s": "bca",
    "lbi.materialize_s": "materialize",
}
#: Per-layer medians of span self time while serving: metric -> span name.
_MEDIAN_SPANS = {
    "pmpn.ms_p50": "pmpn",
    "rwr.power_ms_p50": "rwr.power",
    "serving.serve_ms_p50": "serving.serve",
    "serving.plan_ms_p50": "serving.plan",
}


def end_to_end(workload: Workload, record: dict, mismatched: int) -> Dict[str, dict]:
    """The workload's end-to-end metrics, each with unit and sample count."""
    latencies_ms = np.asarray(record["latencies"]) * 1e3
    updates_ms = np.asarray(record["update_latencies"]) * 1e3
    attempted = latencies_ms.size + updates_ms.size
    values = {
        "setup_s": (stats.median(record["setup_seconds"]), len(record["setup_seconds"])),
        "query_p50_ms": (stats.median(latencies_ms), latencies_ms.size),
        "query_p95_ms": (stats.tail_percentile(latencies_ms, 95), latencies_ms.size),
        "query_p99_ms": (stats.tail_percentile(latencies_ms, 99), latencies_ms.size),
        "throughput_qps": (latencies_ms.size / record["wall"], latencies_ms.size),
        "update_p50_ms": (stats.median(updates_ms) if updates_ms.size else None, updates_ms.size),
        "peak_rss_mb": (record["rss_mb"], 1),
        "index_mb": (record["index_mb"], 1),
        "error_share": ((record["failed"] + mismatched) / attempted, attempted),
    }
    return {
        name: {"value": values[name][0], "unit": END_TO_END[name].unit, "samples": values[name][1]}
        for name in end_to_end_for(workload)
        if values[name][0] is not None
    }


def server_counts(metrics: dict, reports: List[dict]) -> Dict[str, float]:
    """Exact counts from ``GET /metrics`` (all generations) and the update replies."""
    current = metrics.get("service", {})
    generations = list(metrics["rollover"]["retired"]) + [current]
    coalesce = metrics["coalesce"]
    n_batches = max(len(reports), 1)
    return {
        "requests": sum(g.get("n_requests", 0) for g in generations),
        "cache_hits": sum(g.get("n_cache_hits", 0) for g in generations),
        "engine_queries": sum(g.get("n_engine_queries", 0) for g in generations),
        "deduplicated": current.get("n_deduplicated", 0),
        "submitted": coalesce["n_submitted"],
        "coalesced": coalesce["n_coalesced"],
        "shed": sum(
            value
            for tenant in metrics["tenants"].values()
            for name, value in tenant["counters"].items()
            if name.startswith("shed_")
        ),
        "update_batches": len(reports),
        "invalidated_per_batch": sum(r["n_invalidated"] for r in reports) / n_batches,
        "full_rebuilds": sum(bool(r["full_rebuild"]) for r in reports),
    }


def exact_layer_metrics(workload: Workload, record: dict) -> Dict[str, float]:
    """The per-layer metrics that are counts or facts; the untraced run has them too."""
    out: Dict[str, float] = {}
    build = record.get("build") or {}
    for metric, stage in _BUILD_REPORT_STAGES.items():
        if stage in build:
            out[metric] = build[stage]
    if record.get("exact_share") is not None:
        out["lbi.exact_share"] = record["exact_share"]
    counts = record["counts"]
    queries = counts.get("queries", 0)
    if queries:
        candidates, refined = counts["n_candidates"], counts["n_refined_nodes"]
        out["pmpn.iterations_mean"] = counts["pmpn_iterations"] / queries
        out["query.pruned_share"] = counts["n_pruned_immediately"] / (queries * workload.n_nodes)
        out["query.candidates_per_query"] = candidates / queries
        out["query.hit_share"] = counts["n_hits"] / candidates if candidates else 0.0
        out["query.refined_per_query"] = refined / queries
        out["query.refine_iterations_per_query"] = counts["n_refinement_iterations"] / queries
        out["query.fallbacks_per_query"] = counts["n_exact_fallbacks"] / queries
        out["query.fallback_share"] = counts["n_exact_fallbacks"] / refined if refined else 0.0
        out["query.writebacks"] = counts["writebacks"]
    if record["scan_seconds"]:
        out["sharding.scan_ms_p50"] = stats.median(record["scan_seconds"]) * 1e3
    for name, value in (record.get("sharding") or {}).items():
        out[f"sharding.{name}"] = value
    server = record["server"].get("counts")
    if server:
        requests, submitted = server["requests"], server["submitted"]
        out["serving.cache_hit_share"] = server["cache_hits"] / requests if requests else 0.0
        out["serving.engine_queries"] = server["engine_queries"]
        out["serving.dedup_count"] = server["deduplicated"]
        out["dynamic.invalidated_per_batch"] = server["invalidated_per_batch"]
        out["dynamic.full_rebuilds"] = server["full_rebuilds"]
        out["net.coalesced_share"] = server["coalesced"] / submitted if submitted else 0.0
        out["net.shed_count"] = server["shed"]
    return out


def _split(spans: List[dict], serving_since: float) -> Tuple[Dict[str, float], List[dict], List[float]]:
    """``(set-up seconds by span name, serving spans, their self times)``.

    ``serving_since`` is the moment the first request could be sent, on the
    clock of the process that recorded ``spans``.
    """
    own = tracing.self_times(spans)
    setup: Dict[str, float] = {}
    serving, serving_own = [], []
    for span, seconds in zip(spans, own):
        if span["end"] <= serving_since:
            setup[span["name"]] = setup.get(span["name"], 0.0) + seconds
        elif span["start"] >= serving_since:
            serving.append(span)
            serving_own.append(seconds)
    return setup, serving, serving_own


def traced_layer_metrics(
    workload: Workload, plain: dict, traced: dict, tracer: tracing.Tracer
) -> Dict[str, object]:
    """Span-derived per-layer metrics, the layer shares and the tracing overhead."""
    ms = lambda values: stats.median(values) * 1e3  # noqa: E731
    setup, serving, own = _split(tracer.spans, traced["stream_start"])
    missing = list(tracer.missing)
    server_trace = traced["server"].get("trace")
    if server_trace:  # the wire workload: the engine's spans are the child's
        child_setup, child_serving, child_own = _split(
            server_trace["spans"], server_trace["serving_since"]
        )
        setup.update(child_setup)
        serving, own = serving + child_serving, own + child_own
        missing += server_trace["missing"]
    names = tracing.by_name(serving, own)

    out: Dict[str, float] = {}
    for metric, span_name in _SETUP_SPANS.items():
        reported = _BUILD_REPORT_STAGES.get(metric) in (traced.get("build") or {})
        if span_name in setup and not reported:
            out[metric] = setup[span_name]
    for metric, span_name in _MEDIAN_SPANS.items():
        if span_name in names:
            out[metric] = ms(names[span_name])
    scans = tracing.per_request(serving, "query.scan", own)
    if scans:
        out["query.scan_ms_p50"] = ms(scans)
    if "query.refine" in names:
        out["query.refine_ms_per_iteration"] = float(np.mean(names["query.refine"])) * 1e3

    def durations(span_name):
        return [s["end"] - s["start"] for s in serving if s["name"] == span_name]

    def attribute(span_name, key):
        return [s[key] for s in serving if s["name"] == span_name and key in s]

    applies = durations("dynamic.apply")
    if applies:
        out["dynamic.apply_ms_p50"] = ms(applies)
        out["dynamic.changed_columns_per_batch"] = float(
            np.mean(attribute("dynamic.apply", "changed_columns"))
        )
        # Updates are barriers, so the i-th client-side update is the i-th apply.
        updates = traced["update_latencies"]
        out["net.rollover_ms_p50"] = ms(
            [client - server for client, server in zip(updates, applies)]
        )
    serves = durations("serving.serve")
    if serves and workload.kind == "wire":
        out["net.overhead_ms_p50"] = (stats.median(traced["latencies"]) - stats.median(serves)) * 1e3
    rendered = attribute("net.render", "bytes")
    if rendered:
        out["net.response_bytes_mean"] = float(np.mean(rendered))

    # Shares of the callers' time.  One caller: the timed wall, and what no
    # named layer covers is unattributed.  Overlapping wire callers: the sum
    # of their request and update latencies, and net is what remains after
    # the server-side layers — waiting, framing, JSON, coalescing, rollover.
    work: Dict[str, float] = {}
    span_seconds: Dict[str, float] = {}
    for span, seconds in zip(serving, own):
        if span["layer"] not in ("bench", "net"):
            work[span["layer"]] = work.get(span["layer"], 0.0) + seconds
            span_seconds[span["name"]] = span_seconds.get(span["name"], 0.0) + seconds
    if workload.kind == "wire":
        caller_time = sum(traced["latencies"]) + sum(traced["update_latencies"])
    else:
        caller_time = traced["wall"]
    shares = {layer: seconds / caller_time for layer, seconds in work.items()}
    unattributed = 1.0 - sum(shares.values())
    if workload.kind == "wire":
        shares["net"], unattributed = unattributed, 0.0
    span_share = {name: seconds / caller_time for name, seconds in span_seconds.items()}

    # Tracing overhead over the queries both passes completed: the same
    # stream against the same state evolution is the same work.
    common = min(len(plain["latencies"]), len(traced["latencies"]))
    base = sum(plain["latencies"][:common])
    out["obs.trace_overhead_share"] = (sum(traced["latencies"][:common]) - base) / base
    return {
        "metrics": out,
        "missing": sorted(set(missing)),
        "layer_share": dict(sorted(shares.items())),
        "span_share": dict(sorted(span_share.items())),
        "unattributed_share": unattributed,
        "n_spans": len(tracer.spans) + (len(server_trace["spans"]) if server_trace else 0),
        "overhead_queries": common,
    }
