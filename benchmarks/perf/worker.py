"""One workload in one fresh process: set up, warm up, time the stream, verify.

``run.py`` starts this module with the noise-hygiene environment already in
place (single-threaded BLAS, fixed hash seed).  It prints one JSON record as
its last stdout line; ``run.py`` turns that into the report, the ``--out``
file and the driver's result line.

A *pass* is: set up the program ``n`` times (timing each), issue the untimed
warm-up, freeze the GC, then drive the request stream closed-loop for the
given seconds (and at least the workload's floor of queries), reading every
latency on the caller's clock.  ``--trace 0`` is one pass with tracing off.
``--trace 1`` is an untraced half-length pass followed by the same stream
again with the benchmark's spans installed, so per-layer self times and the
tracing overhead come from one process.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import dataclasses
import gc
import json
from pathlib import Path
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

import numpy as np

from . import stats, trace as tracing
from .inputs import Inputs, apply_batch, edge_set, make_inputs
from .layers import end_to_end, exact_layer_metrics, server_counts, traced_layer_metrics
from .verify import Oracle, csr_from_edges
from .workloads import (
    FINGERPRINTS,
    N_SETUPS,
    PER_LAYER,
    VERIFY_QUERIES,
    WORKLOADS,
    Workload,
    smoke,
)

PERF_DIR = Path(__file__).resolve().parent
WORK_DIR = PERF_DIR / ".work"
RESULTS_DIR = PERF_DIR / "results"

#: QueryStatistics fields summed over the counted prefix.
_STAT_FIELDS = (
    "n_candidates",
    "n_hits",
    "n_pruned_immediately",
    "n_refined_nodes",
    "n_refinement_iterations",
    "n_exact_fallbacks",
    "pmpn_iterations",
)


def index_params(workload: Workload):
    """The paper's parameters for ``workload`` as the program's IndexParams."""
    from repro import IndexParams

    kwargs = dict(workload.params)
    fields = {f.name for f in dataclasses.fields(IndexParams)}
    if workload.kind == "service" and "backend" in fields:
        # The benchmark's single implementation pin: without the sparse
        # build a memmap-sized graph needs dense (n x block) planes.  Passed
        # only while the field exists, so ROADMAP item 3 can remove it.
        kwargs["backend"] = "sparse"
    return IndexParams(**kwargs)


def _count_prefix(workload: Workload) -> int:
    """Queries the exact counts are summed over; both pass lengths reach it."""
    return workload.min_queries // 2


_NO_SPAN = contextlib.nullcontext()


def _span(tracer, layer, name, request=None):
    return tracer.span(layer, name, request) if tracer is not None else _NO_SPAN


# ---------------------------------------------------------------------- #
# library workloads (engine / service kinds)
# ---------------------------------------------------------------------- #
def _build_host(workload: Workload, inputs: Inputs, directory: Path):
    params = index_params(workload)
    if workload.kind == "engine":
        from repro import ReverseTopKEngine

        return ReverseTopKEngine.build(inputs.graph, params)
    from repro import ReverseTopKService
    import repro.graph.io as graph_io  # attribute lookup at call time: spans see it

    graph = graph_io.stream_edge_list(inputs.edge_list, n_nodes=workload.n_nodes)
    return ReverseTopKService.from_graph(
        graph, params, snapshot_dir=directory, **dict(workload.deployment)
    )


def _index_facts(index) -> Dict[str, object]:
    """Build report, exactness and size of a monolithic or sharded index."""
    facts: Dict[str, object] = {"index_mb": index.total_bytes() / 2**20}
    report = getattr(index, "build_report", None)
    if report is not None:
        facts["build"] = dict(report.stage_seconds)
    shards = getattr(index, "shards", None)
    views = [shard.columns for shard in shards] if shards else [index.columns]
    exact = np.concatenate([np.asarray(view.is_exact) for view in views])
    facts["exact_share"] = float(exact.mean())
    if shards:
        facts["sharding"] = {
            "resident_mb": index.resident_bytes() / 2**20,
            "total_mb": index.total_bytes() / 2**20,
        }
    return facts


def library_pass(
    workload: Workload,
    inputs: Inputs,
    seconds: float,
    floor: int,
    n_setups: int,
    tracer: Optional[tracing.Tracer],
    workdir: Path,
) -> Dict[str, object]:
    is_service = workload.kind == "service"
    setup_seconds: List[float] = []
    host = None
    for _ in range(n_setups):
        if host is not None and is_service:
            host.close()
        host = None  # drop the previous index before building the next
        # A fresh snapshot directory each time: a reused one would warm-start.
        snapshots = Path(tempfile.mkdtemp(dir=workdir, prefix="snap-"))
        started = time.perf_counter()
        with _span(tracer, "bench", "setup"):
            host = _build_host(workload, inputs, snapshots)
        setup_seconds.append(time.perf_counter() - started)
    engine = host.engine if is_service else host
    k = workload.k
    if is_service:
        call = lambda q: host.query(q, k)  # noqa: E731
        warm = call
    else:
        call = lambda q: host.query(q, k, update_index=workload.update_index)  # noqa: E731
        warm = lambda q: host.query(q, k, update_index=False)  # noqa: E731
    facts = _index_facts(engine.index)  # before queries write refinements back
    for query in inputs.warmup.tolist():
        warm(query)
    gc.collect()
    gc.freeze()

    stream = inputs.stream.tolist()
    floor = min(floor, len(stream))
    prefix = _count_prefix(workload)
    sample_at = set(np.linspace(0, floor - 1, VERIFY_QUERIES).astype(int).tolist())
    latencies: List[float] = []
    counted: List[tuple] = []
    scan_seconds: List[float] = []
    samples: List[tuple] = []
    failed = 0
    version_start = engine.index.version
    version_prefix = version_start
    clock = time.perf_counter
    stream_start = clock()
    deadline = stream_start + seconds
    hard_stop = stream_start + max(4.0 * seconds, 60.0)
    for position, query in enumerate(stream):
        began = clock()
        try:
            with _span(tracer, "bench", "request", position):
                result = call(query)
        except Exception as exc:  # noqa: BLE001 - a failed op is a counted outcome
            latencies.append(clock() - began)
            failed += 1
            print(f"[perf] query {query} raised {exc!r}", file=sys.stderr)
            continue
        now = clock()
        latencies.append(now - began)
        statistics = result.statistics
        if position < prefix:
            counted.append(tuple(getattr(statistics, name) for name in _STAT_FIELDS))
            if position == prefix - 1:
                version_prefix = engine.index.version
        if is_service:
            scan_seconds.append(statistics.stage_seconds.get("scan", 0.0))
        if position in sample_at:
            samples.append((0, query, np.array(result.nodes)))
        if now >= deadline and position + 1 >= floor:
            break
        if now >= hard_stop:
            raise RuntimeError(
                f"{workload.name}: only {position + 1} of the {floor}-query floor "
                f"completed in {now - stream_start:.0f} s"
            )
    wall = clock() - stream_start
    gc.unfreeze()
    rss = stats.peak_rss_mb()  # before the oracle allocates anything
    if is_service:
        host.close()

    counts = dict(zip(_STAT_FIELDS, np.sum(counted, axis=0).tolist())) if counted else {}
    counts["queries"] = len(counted)
    counts["writebacks"] = int(version_prefix - version_start)
    return {
        "setup_seconds": setup_seconds,
        "latencies": latencies,
        "update_latencies": [],
        "wall": wall,
        "stream_start": stream_start,
        "failed": failed,
        "counts": counts,
        "scan_seconds": scan_seconds,
        "samples": samples,
        "epochs": {0: (inputs.indptr, inputs.indices)},
        "rss_mb": rss,
        "server": {},
        **facts,
    }


# ---------------------------------------------------------------------- #
# the wire workload: server child + closed-loop callers
# ---------------------------------------------------------------------- #
class _ServerChild:
    """The server subprocess and what it printed on its LISTENING line."""

    def __init__(self, workload: Workload, graph_file: Path, trace_file: Optional[Path]):
        command = [
            sys.executable, "-m", "perf.server_child",
            "--graph", str(graph_file),
            "--params", json.dumps(dict(workload.params)),
        ]
        if trace_file is not None:
            command += ["--trace-out", str(trace_file)]
        # stdin is the child's lifeline: it exits when this end closes.
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        line = self.process.stdout.readline()
        if not line.startswith("LISTENING "):
            self.stop()
            raise RuntimeError(f"server child did not start: {line!r}")
        self.facts = json.loads(line[len("LISTENING "):])
        self.host, self.port = self.facts["host"], self.facts["port"]

    def stop(self) -> None:
        """SIGTERM, then wait: the child drains, dumps its trace and exits."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()


async def _wire_stream(workload, inputs, seconds, floor, client, tracer):
    from repro.net.client import ServerRejected

    stream = inputs.stream.tolist()
    k = workload.k
    latencies: List[float] = []
    update_latencies: List[float] = []
    update_reports: List[dict] = []
    samples: Dict[int, List[tuple]] = {}
    failed = 0
    position = 0
    epoch = 0
    clock = time.perf_counter
    stream_start = clock()
    deadline = stream_start + seconds
    hard_stop = stream_start + max(4.0 * seconds, 60.0)

    def finished() -> bool:
        now = clock()
        if now >= hard_stop and len(latencies) < floor:
            raise RuntimeError(
                f"{workload.name}: only {len(latencies)} of the {floor}-query floor "
                f"completed in {now - stream_start:.0f} s"
            )
        return now >= deadline and len(latencies) >= floor

    async def caller(segment_end: int) -> None:
        nonlocal position, failed
        while position < segment_end and clock() < hard_stop:
            mine, position = position, position + 1
            query = stream[mine]
            began = clock()
            try:
                with _span(tracer, "net", "net.request", mine):
                    payload = await asyncio.wait_for(client.query(query, k), 300.0)
            except (ServerRejected, OSError, asyncio.TimeoutError, EOFError) as exc:
                latencies.append(clock() - began)
                failed += 1
                print(f"[perf] query {query} failed: {exc!r}", file=sys.stderr)
                continue
            latencies.append(clock() - began)
            kept = samples.setdefault(epoch, [])
            if len(kept) < VERIFY_QUERIES // 3 and all(query != q for _, q, _ in kept):
                kept.append((epoch, query, np.array(payload["nodes"], dtype=np.int64)))

    # The deadline is read only between whole cycles (a query segment plus
    # its update batch): a run cut mid-cycle would report a throughput that
    # depends on where in the cycle the cut fell.
    while position < len(stream) and epoch < len(inputs.batches) and not finished():
        segment_end = min(position + workload.queries_per_batch, len(stream))
        await asyncio.gather(*(caller(segment_end) for _ in range(workload.connections)))
        began = clock()
        try:
            with _span(tracer, "net", "net.update", f"update-{epoch}"):
                report = await asyncio.wait_for(client.update(inputs.batches[epoch]), 300.0)
            update_reports.append(report)
        except (ServerRejected, OSError, asyncio.TimeoutError, EOFError) as exc:
            failed += 1
            print(f"[perf] update batch {epoch} failed: {exc!r}", file=sys.stderr)
        update_latencies.append(clock() - began)
        epoch += 1
    wall = clock() - stream_start
    return {
        "latencies": latencies,
        "update_latencies": update_latencies,
        "update_reports": update_reports,
        "wall": wall,
        "stream_start": stream_start,
        "failed": failed,
        "samples_by_epoch": samples,
    }


async def _hang_up(client, child) -> None:
    """Close the client's sockets, then stop the child off the event loop.

    ``aclose`` only schedules the transport closes; stopping the child from a
    thread lets the loop run them, so the server drains at once instead of
    waiting out its shutdown grace on connections that look open.
    """
    if client is not None:
        await client.aclose()
    if child is not None:
        await asyncio.to_thread(child.stop)


async def _wire_pass(workload, inputs, seconds, floor, n_setups, tracer, workdir):
    from repro.net.client import ReverseTopKClient

    graph_file = workdir / "graph.npz"
    np.savez(graph_file, indptr=inputs.indptr, indices=inputs.indices)
    trace_file = workdir / "server-trace.json" if tracer is not None else None
    setup_seconds: List[float] = []
    child = client = None
    try:
        for _ in range(n_setups):
            if client is not None:
                await _hang_up(client, child)
            started = time.perf_counter()
            with _span(tracer, "bench", "setup"):
                child = _ServerChild(workload, graph_file, trace_file)
                client = ReverseTopKClient(
                    child.host, child.port, max_connections=workload.connections
                )
                await client.prewarm(workload.connections)
            setup_seconds.append(time.perf_counter() - started)
        for query in inputs.warmup.tolist():
            await client.query(query, workload.k)
        gc.collect()
        gc.freeze()
        timed = await _wire_stream(workload, inputs, seconds, floor, client, tracer)
        gc.unfreeze()
        server_metrics = await client.metrics()
        rss = stats.peak_rss_mb(child.process.pid)  # the process hosting the engine
    finally:
        await _hang_up(client, child)

    # Oracle epochs: the first, middle and last graph state that served queries.
    by_epoch = timed.pop("samples_by_epoch")
    wanted = sorted(by_epoch)
    wanted = sorted({wanted[0], wanted[len(wanted) // 2], wanted[-1]})
    edges = edge_set(inputs.indptr, inputs.indices)
    epochs = {}
    for epoch in range(wanted[-1] + 1):
        if epoch in wanted:
            epochs[epoch] = csr_from_edges(edges, inputs.n_nodes)
        apply_batch(edges, inputs.batches[epoch])
    server = dict(child.facts)
    server["counts"] = server_counts(server_metrics, timed["update_reports"])
    if trace_file is not None and trace_file.exists():
        server["trace"] = json.loads(trace_file.read_text(encoding="utf-8"))
    return {
        "setup_seconds": setup_seconds,
        "counts": {},
        "scan_seconds": [],
        "samples": [s for epoch in wanted for s in by_epoch[epoch]],
        "epochs": epochs,
        "rss_mb": rss,
        "index_mb": server["index_bytes"] / 2**20,
        "build": server.get("build"),
        "exact_share": server.get("exact_share"),
        "server": server,
        **timed,
    }


def wire_pass(*args):
    return asyncio.run(_wire_pass(*args))


# ---------------------------------------------------------------------- #
# verification
# ---------------------------------------------------------------------- #
def verify(workload: Workload, record: dict, seed: int) -> Dict[str, int]:
    """Check the sampled answers against the oracle; mismatching queries fail."""
    rng = np.random.default_rng([seed, 3])
    oracles = {epoch: Oracle(*csr) for epoch, csr in record["epochs"].items()}
    wrong = 0
    for epoch, query, nodes in record["samples"]:
        errors = oracles[epoch].mismatches(query, workload.k, nodes, rng)
        if errors:
            wrong += 1
            print(
                f"[perf] oracle: query {query} (epoch {epoch}) has {errors} "
                "membership errors",
                file=sys.stderr,
            )
    return {"verified_ops": len(record["samples"]), "mismatched": wrong}


# ---------------------------------------------------------------------- #
# entry point
# ---------------------------------------------------------------------- #
def run(name: str, seed: int, seconds: float, trace: bool, is_smoke: bool) -> dict:
    workload = WORKLOADS[name]
    if is_smoke:
        workload = smoke(workload)
    run_pass = wire_pass if workload.kind == "wire" else library_pass
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR, prefix=f"{name}-") as tmp:
        workdir = Path(tmp)
        inputs = make_inputs(workload, seed, workdir)
        fingerprint = {"graph": inputs.graph_sha, "stream": inputs.stream_sha}
        frozen = FINGERPRINTS.get(name)
        if frozen and not is_smoke:
            # The dataset is the same for every seed; the stream is frozen at seed 0.
            stale = inputs.graph_sha != frozen[0] or (seed == 0 and inputs.stream_sha != frozen[1])
            if stale:
                raise SystemExit(
                    f"{name}: inputs no longer hash to the frozen fingerprints "
                    f"(got {fingerprint}); a generator changed"
                )
        trace_info = None
        if not trace:
            record = run_pass(
                workload, inputs, seconds, workload.min_queries, N_SETUPS, None, workdir
            )
        else:
            # Two half-length passes with half the floor: the counted prefix.
            half, floor = seconds / 2, _count_prefix(workload)
            plain = run_pass(workload, inputs, half, floor, 1, None, workdir)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                record = run_pass(workload, inputs, half, floor, 1, tracer, workdir)
            finally:
                tracer.uninstall()
            trace_info = traced_layer_metrics(workload, plain, record, tracer)
            trace_file = RESULTS_DIR / f"trace-{name}.json"
            tracer.dump(
                trace_file,
                workload=name,
                seed=seed,
                server=record["server"].pop("trace", None),
            )
            trace_info["file"] = str(trace_file.relative_to(PERF_DIR))
        checked = verify(workload, record, seed)

    layers = exact_layer_metrics(workload, record)
    if trace_info is not None:
        layers.update(trace_info.pop("metrics"))
    latencies = record["latencies"]
    return {
        "workload": name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": is_smoke,
        "fingerprint": fingerprint,
        "attempted": len(latencies) + len(record["update_latencies"]),
        "failed": record["failed"] + checked["mismatched"],
        "verified_ops": checked["verified_ops"],
        "timed_queries": len(latencies),
        "timed_updates": len(record["update_latencies"]),
        "timed_wall_s": record["wall"],
        "end_to_end": end_to_end(workload, record, checked["mismatched"]),
        "per_layer": {
            name_: {"value": layers[name_], "unit": PER_LAYER[name_].unit}
            for name_ in PER_LAYER
            if name_ in layers
        },
        "counts": record["counts"] or record["server"].get("counts", {}),
        "trace_info": trace_info,
        "environment": stats.environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
