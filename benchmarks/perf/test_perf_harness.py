"""Tier-1 coverage of the benchmark harness itself (collected by ``pytest -x -q``)."""

from __future__ import annotations

import json
from pathlib import Path
import re
import subprocess
import sys

import numpy as np
import pytest

from perf import compare, inputs, stats, trace as tracing, workloads
from perf.verify import Oracle

PERF_DIR = Path(__file__).resolve().parent
REPO = PERF_DIR.parents[1]


# ---------------------------------------------------------------------- #
# percentile and sample-count rules
# ---------------------------------------------------------------------- #
def test_tail_percentile_needs_ten_samples_beyond():
    values = np.arange(1000, dtype=float)
    assert stats.tail_percentile(values[:199], 95) is None
    assert stats.tail_percentile(values[:200], 95) == pytest.approx(np.percentile(values[:200], 95))
    assert stats.tail_percentile(values[:999], 99) is None
    assert stats.tail_percentile(values, 99) == pytest.approx(989.01)
    assert stats.median([3.0, 1.0, 2.0]) == 2.0


def test_every_workload_floor_supports_its_percentiles():
    for workload in workloads.WORKLOADS.values():
        assert workload.min_queries >= 200  # p95
        if "query_p99_ms" in workload.extra_metrics:
            assert workload.min_queries >= 1000


# ---------------------------------------------------------------------- #
# spans
# ---------------------------------------------------------------------- #
def test_span_self_time_and_parent_linkage():
    spans = [
        {"id": 0, "name": "request", "layer": "bench", "parent": None, "request": 7,
         "start": 0.0, "end": 10.0},
        {"id": 1, "name": "query.engine", "layer": "query", "parent": 0, "request": 7,
         "start": 1.0, "end": 9.0},
        {"id": 2, "name": "pmpn", "layer": "pmpn", "parent": 1, "request": 7,
         "start": 1.5, "end": 4.5},
        {"id": 3, "name": "query.scan", "layer": "query", "parent": 1, "request": 7,
         "start": 5.0, "end": 6.0},
        {"id": 4, "name": "query.scan", "layer": "query", "parent": 1, "request": 7,
         "start": 6.0, "end": 8.0},
    ]
    own = tracing.self_times(spans)
    assert own == [2.0, 2.0, 3.0, 1.0, 2.0]
    assert sum(own) == pytest.approx(10.0)  # self times partition the root
    assert tracing.by_layer(spans) == {"bench": 2.0, "query": 5.0, "pmpn": 3.0}
    assert tracing.per_request(spans, "query.scan") == [3.0]


def test_wrappers_nest_and_missing_targets_are_listed(monkeypatch):
    import types

    fake = types.ModuleType("perf_fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return fake.inner(x) * 2

    fake.inner, fake.outer = inner, outer
    monkeypatch.setitem(sys.modules, "perf_fake_layer", fake)
    tracer = tracing.Tracer()
    tracer.install(
        (
            ("a", "a.outer", "perf_fake_layer:outer"),
            ("b", "b.inner", "perf_fake_layer:inner"),
            ("b", "b.gone", "perf_fake_layer:renamed_away"),
            ("c", "c.gone", "perf_no_such_module:f"),
        )
    )
    try:
        with tracer.span("bench", "request", request=3):
            assert fake.outer(1) == 4
    finally:
        tracer.uninstall()
    assert fake.outer is outer and fake.inner is inner
    assert tracer.missing == ["perf_fake_layer:renamed_away", "perf_no_such_module:f"]
    by_name = {span["name"]: span for span in tracer.spans}
    assert by_name["a.outer"]["parent"] == by_name["request"]["id"]
    assert by_name["b.inner"]["parent"] == by_name["a.outer"]["id"]
    assert {span["request"] for span in tracer.spans} == {3}
    assert all(seconds >= 0 for seconds in tracing.self_times(tracer.spans))


# ---------------------------------------------------------------------- #
# inputs
# ---------------------------------------------------------------------- #
def test_fingerprints_repeat_and_follow_the_seed(tmp_path):
    for workload in workloads.WORKLOADS.values():
        shape = workloads.smoke(workload)
        first = inputs.make_inputs(shape, 5, tmp_path)
        again = inputs.make_inputs(shape, 5, tmp_path)
        other = inputs.make_inputs(shape, 6, tmp_path)
        assert (first.graph_sha, first.stream_sha) == (again.graph_sha, again.stream_sha)
        assert other.graph_sha == first.graph_sha  # the dataset is fixed
        assert other.stream_sha != first.stream_sha
        assert not set(first.warmup.tolist()) & set(first.stream.tolist())


def test_seed_zero_inputs_match_the_frozen_fingerprints(tmp_path):
    assert set(workloads.FINGERPRINTS) == set(workloads.WORKLOADS)
    for name, workload in workloads.WORKLOADS.items():
        made = inputs.make_inputs(workload, 0, tmp_path)
        assert (made.graph_sha, made.stream_sha) == workloads.FINGERPRINTS[name], name


def test_stratified_prefixes_cover_the_rank_band():
    nodes = np.arange(1000)
    epoch = inputs.stratified_epoch(nodes, np.random.default_rng(0))
    assert sorted(epoch.tolist()) == nodes.tolist()
    strata = epoch[:100] // (1000 // workloads.N_STRATA)
    assert np.bincount(strata, minlength=workloads.N_STRATA).tolist() == [5] * workloads.N_STRATA


def test_update_batches_stay_valid_on_the_evolving_edge_set(tmp_path):
    made = inputs.make_inputs(
        workloads.smoke(workloads.WORKLOADS["wire_churn"]), 1, tmp_path
    )
    edges = inputs.edge_set(made.indptr, made.indices)
    for batch in made.batches:
        for op, u, v in batch:
            assert ((u, v) in edges) == (op == "remove") and u != v
        inputs.apply_batch(edges, batch)
        sources = {u for u, _ in edges}
        assert all(u in sources for _, u, _ in batch)  # nobody turned dangling


# ---------------------------------------------------------------------- #
# comparator
# ---------------------------------------------------------------------- #
def test_comparator_verdicts():
    p50 = workloads.END_TO_END["query_p50_ms"]
    steady = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.02]
    assert compare.verdict(p50, steady, [v * 1.01 for v in steady])[0] == "unchanged"
    assert compare.verdict(p50, steady, [v * 1.5 for v in steady])[0] == "regression"
    assert compare.verdict(p50, steady, [v * 0.8 for v in steady])[0] == "gain"
    noisy = [10.0, 14.0, 7.0, 12.0, 8.0, 13.0, 6.5, 11.0, 9.0, 15.0]
    assert compare.verdict(p50, noisy, noisy[::-1])[0] == "unresolved"
    qps = workloads.END_TO_END["throughput_qps"]
    assert compare.verdict(qps, steady, [v * 0.5 for v in steady])[0] == "regression"
    errors = workloads.END_TO_END["error_share"]
    assert compare.verdict(errors, [0.0] * 5, [0.0] * 5)[0] == "unchanged"
    assert compare.verdict(errors, [0.0] * 5, [0.0, 0.01, 0.0, 0.0, 0.0])[0] == "regression"


# ---------------------------------------------------------------------- #
# oracle
# ---------------------------------------------------------------------- #
def test_oracle_agrees_with_brute_force_on_the_paper_toy_graph():
    from repro import brute_force_reverse_topk, transition_matrix
    from repro.graph.generators import paper_toy_graph

    graph = paper_toy_graph()
    adjacency = graph.adjacency
    oracle = Oracle(adjacency.indptr, adjacency.indices)
    matrix = transition_matrix(graph)
    rng = np.random.default_rng(0)
    for query in range(graph.n_nodes):
        for k in (1, 2, 3):
            truth = brute_force_reverse_topk(matrix, query, k)
            assert oracle.mismatches(query, k, truth, rng) == 0
            wrong = np.setdiff1d(np.arange(graph.n_nodes), truth)
            if truth.size and wrong.size:
                assert oracle.mismatches(query, k, wrong, rng) > 0


# ---------------------------------------------------------------------- #
# contract and hygiene
# ---------------------------------------------------------------------- #
def test_benchmark_json_agrees_with_the_tables():
    declared = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert declared["paths"] == ["benchmarks/perf"]
    assert declared["command"] == ["python3", "benchmarks/perf/run.py"]
    assert declared["run_seconds"] == workloads.RUN_SECONDS
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    contract = {n: m for n, m in workloads.END_TO_END.items() if m.contract}
    assert {
        e["name"]: (e["unit"], e["better"], e["bound"]) for e in declared["end_to_end"]
    } == {n: (m.unit, m.better, m.bound) for n, m in contract.items()}
    assert {e["name"]: (e["unit"], e["better"]) for e in declared["per_layer"]} == {
        n: (m.unit, m.better) for n, m in workloads.PER_LAYER.items()
    }
    assert max(contract, key=lambda n: contract[n].bound) == "setup_s"


def test_only_one_implementation_pin_under_the_benchmark():
    pattern = re.compile(r"""\b(backend|scan_mode|scan_precision)\b["']?\]?\s*=[^=]""")
    hits = [
        (path.name, line.strip())
        for path in sorted(PERF_DIR.glob("*.py"))
        if path.name != Path(__file__).name
        for line in path.read_text(encoding="utf-8").splitlines()
        if pattern.search(line)
    ]
    assert hits == [("worker.py", 'kwargs["backend"] = "sparse"')]


def test_smoke_run_exercises_all_four_workloads(tmp_path):
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--smoke", "--seconds", "0.2",
         "--out", str(out)],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    runs = json.loads(out.read_text(encoding="utf-8"))["runs"]
    assert [run["workload"] for run in runs] == list(workloads.WORKLOADS)
    for run in runs:
        assert run["smoke"] is True
        assert run["failed"] == 0 and run["verified_ops"] >= 15, run["workload"]
        assert run["timed_queries"] >= 30  # mid_k50_update: its whole 34-node band
        assert set(workloads.COMMON_END_TO_END) - {"query_p95_ms"} <= set(run["end_to_end"])
    wire = runs[-1]
    assert wire["timed_updates"] >= 1 and wire["counts"]["update_batches"] >= 1
    with pytest.raises(SystemExit):
        compare.load(out)
