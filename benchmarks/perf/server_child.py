"""The wire workload's server process.

Loads the benchmark's graph from an ``.npz`` of CSR arrays, builds a
``DynamicReverseTopKService`` with the paper's parameters and serves it with
the default ``ServerConfig`` until SIGTERM.  Prints one
``LISTENING {json}`` line (address plus index facts) once the first request
can be sent; with ``--trace-out`` the benchmark's spans are installed before
the build and dumped after the drain.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
from pathlib import Path
import signal
import sys
import threading
import time

import numpy as np
import scipy.sparse as sp

from . import trace as tracing


def _exit_with_parent() -> None:
    """SIGTERM ourselves when stdin closes: a killed worker leaves no orphan."""
    # The raw descriptor, not sys.stdin: a daemon thread blocked inside the
    # buffered reader aborts the interpreter at shutdown.
    while os.read(0, 4096):
        pass
    os.kill(os.getpid(), signal.SIGTERM)


async def _serve(server, facts: dict) -> None:
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    await server.start()
    facts["host"], facts["port"] = server.address
    facts["serving_since"] = time.perf_counter()
    print("LISTENING " + json.dumps(facts), flush=True)
    await stop.wait()
    await server.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graph", required=True, type=Path)
    parser.add_argument("--params", required=True, help="IndexParams fields as JSON")
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out is not None:
        tracer = tracing.Tracer()
        tracer.install()

    from repro import DiGraph, DynamicReverseTopKService, IndexParams
    from repro.net.server import ReverseTopKServer, ServerConfig

    with np.load(args.graph) as arrays:
        indptr, indices = arrays["indptr"], arrays["indices"]
    n = indptr.size - 1
    graph = DiGraph(sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=(n, n)))
    service = DynamicReverseTopKService.from_graph(
        graph, IndexParams(**json.loads(args.params))
    )
    index = service.engine.index
    report = getattr(index, "build_report", None)
    facts = {
        "index_bytes": index.total_bytes(),
        "exact_share": float(np.mean(index.columns.is_exact)),
        "build": dict(report.stage_seconds) if report is not None else None,
    }
    server = ReverseTopKServer(service, ServerConfig())
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    gc.collect()
    gc.freeze()
    try:
        asyncio.run(_serve(server, facts))
    finally:
        if not service.closed:
            service.close()
        if tracer is not None:
            tracer.dump(args.trace_out, serving_since=facts.get("serving_since", 0.0))
    print("SHUTDOWN COMPLETE", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
