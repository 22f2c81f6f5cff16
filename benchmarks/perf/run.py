"""The repo's one benchmark: ``python benchmarks/perf/run.py [--workload NAME] ...``.

Runs each requested workload in a fresh subprocess (``perf.worker``) under
the noise-hygiene environment, prints every metric by name with its unit and
sample count, and ends with one JSON line for the driver named in
``BENCHMARK.json``: ``{"correct", "attempted", "failed", "metrics"}`` — the
contract's end-to-end metrics with ``--trace 0``, every per-layer metric
with ``--trace 1`` (a layer the workload never enters reads 0).

``--out FILE`` appends the full records to ``FILE`` (a *set* of runs, the
input of ``compare.py``).
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
import subprocess
import sys

PERF_DIR = Path(__file__).resolve().parent
REPO = PERF_DIR.parents[1]
sys.path.insert(0, str(PERF_DIR.parent))

from perf.workloads import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOADS,
)

#: Wall-clock cap on one worker, under the driver's 180 s per run.
WORKER_TIMEOUT = 170

#: Single-threaded numerics and a fixed hash seed, set before the worker's
#: interpreter starts (neither can be changed from inside a process).
HYGIENE = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def run_worker(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One workload in a fresh subprocess; returns the worker's record."""
    env = dict(os.environ, **HYGIENE)
    env["PYTHONPATH"] = os.pathsep.join([str(PERF_DIR.parent), str(REPO / "src")])
    command = [
        sys.executable, "-m", "perf.worker",
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, env=env, cwd=REPO, stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def report(record: dict) -> str:
    """Every metric by name, with unit and sample count."""
    lines = [
        f"== {record['workload']}  seed={record['seed']}  seconds={record['seconds']}"
        f"  trace={int(record['trace'])}{'  SMOKE' if record['smoke'] else ''}",
        f"   why: {record['why']}",
        f"   inputs: graph sha256 {record['fingerprint']['graph'][:16]}"
        f"  stream sha256 {record['fingerprint']['stream'][:16]}",
        f"   ops: attempted={record['attempted']} failed={record['failed']}"
        f" verified_ops={record['verified_ops']} timed_queries={record['timed_queries']}"
        f" timed_updates={record['timed_updates']} timed_wall_s={record['timed_wall_s']:.2f}",
    ]
    for name, cell in record["end_to_end"].items():
        lines.append(
            f"   {name:<18}{cell['value']:>14.4f} {cell['unit']:<6} (n={cell['samples']})"
        )
    if record["per_layer"]:
        lines.append("   -- per layer")
    for name, cell in record["per_layer"].items():
        lines.append(f"   {name:<36}{cell['value']:>14.4f} {cell['unit']}")
    info = record.get("trace_info")
    if info:
        shares = "  ".join(f"{k}={v:.3f}" for k, v in info["layer_share"].items())
        lines.append(f"   layer share of caller time: {shares}")
        spans = "  ".join(f"{k}={v:.3f}" for k, v in info["span_share"].items() if v >= 0.005)
        lines.append(f"   span share of caller time:  {spans}")
        lines.append(f"   unattributed_share={info['unattributed_share']:.3f}")
        lines.append(f"   trace.missing={info['missing']}")
        lines.append(f"   spans written to {info['file']}")
    return "\n".join(lines)


def driver_line(record: dict) -> str:
    """The result object the driver reads as the last stdout line."""
    if record["trace"]:
        metrics = {
            name: {"value": record["per_layer"].get(name, {}).get("value", 0.0),
                   "unit": metric.unit}
            for name, metric in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": record["end_to_end"][name]["value"], "unit": metric.unit}
            for name, metric in END_TO_END.items()
            # (a smoke run times too few queries for a supported p95)
            if metric.contract and name in record["end_to_end"]
        }
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def append_runs(path: Path, records: list) -> None:
    runs = json.loads(path.read_text(encoding="utf-8"))["runs"] if path.exists() else []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"runs": runs + records}, indent=1) + "\n", encoding="utf-8")


def print_fingerprints() -> None:
    """The ``FINGERPRINTS`` literal for workloads.py (seed 0, full shapes)."""
    import tempfile

    sys.path.insert(0, str(REPO / "src"))
    from perf.inputs import make_inputs

    with tempfile.TemporaryDirectory(dir=PERF_DIR) as tmp:
        for name, workload in WORKLOADS.items():
            made = make_inputs(workload, 0, Path(tmp))
            print(f'    "{name}": (\n        "{made.graph_sha}",\n        "{made.stream_sha}",\n    ),')


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="append the full records to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes for tier-1; output is refused by compare.py")
    parser.add_argument("--fingerprints", action="store_true",
                        help="print seed 0's input fingerprints and exit")
    args = parser.parse_args(argv)

    if not (REPO / "src" / "repro").is_dir():
        print(f"no program to measure: {REPO / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.fingerprints:
        print_fingerprints()
        return 0

    names = [args.workload] if args.workload else list(WORKLOADS)
    records = []
    for name in names:
        record = run_worker(name, args.seed, args.seconds, args.trace, args.smoke)
        records.append(record)
        print(report(record), flush=True)
    if args.out is not None:
        append_runs(args.out, records)
    if len(records) == 1:
        print(driver_line(records[0]))
    else:
        print(json.dumps({r["workload"]: json.loads(driver_line(r)) for r in records}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
