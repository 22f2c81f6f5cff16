"""Smoke test: a real server subprocess, driven over the wire, SIGTERM'd.

This is the CI smoke job's assertion set run in-suite: the standalone entry
point (``python -m repro.net.server``) must come up, serve queries and a
churn batch, answer a repeated query from the cache without a burst, expose
metrics, and shut down gracefully on SIGTERM (drained connections,
``SHUTDOWN COMPLETE`` marker, exit code 0).
"""

from __future__ import annotations

import asyncio
import os
from pathlib import Path
import signal
import subprocess
import sys

import pytest

from repro.net import ReverseTopKClient
from repro.net.http import json_payload, read_response, render_request

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


@pytest.fixture()
def server_process():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.net.server",
            "--nodes",
            "60",
            "--seed",
            "11",
            "--port",
            "0",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = process.stdout.readline().strip()
        assert line.startswith("LISTENING "), (
            f"expected LISTENING marker, got {line!r}; "
            f"stderr: {process.stderr.read()}"
        )
        _, host, port = line.split()
        yield process, host, int(port)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)


async def raw_query(host, port, query, k):
    """One ``POST /query`` on its own socket; returns the response body bytes."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            render_request(
                "POST", "/query", body=json_payload({"query": query, "k": k})
            )
        )
        await writer.drain()
        status, _, body = await read_response(reader)
    finally:
        writer.close()
        await writer.wait_closed()
    assert status == 200, body
    return body


def test_subprocess_serves_and_shuts_down_gracefully(server_process):
    process, host, port = server_process

    async def workload():
        async with ReverseTopKClient(host, port) as client:
            assert await client.healthz() == {"status": "ok"}
            responses = await asyncio.gather(
                *[client.query(q % 60, 5) for q in range(24)]
            )
            assert {r["index_version"] for r in responses} == {0}
            # A repeated (query, k) is a cache hit answered on the event
            # loop: the same bytes, one loop hit, and no burst.
            first = await raw_query(host, port, 7, 3)
            before = (await client.metrics())["coalesce"]
            assert await raw_query(host, port, 7, 3) == first
            after = (await client.metrics())["coalesce"]
            assert after["n_loop_hits"] == before["n_loop_hits"] + 1
            assert after["n_batches"] == before["n_batches"]
            ack = await client.update([("add", 0, 30), ("remove", 0, 30)])
            assert ack["applied"] == 2
            metrics = await client.metrics()
            assert metrics["tenants"]["default"]["counters"]["admitted"] >= 24
            assert metrics["server"]["n_requests"] >= 26
            return metrics

    metrics = asyncio.run(workload())
    assert metrics["admission"]["pending"] == 0

    process.send_signal(signal.SIGTERM)
    stdout, stderr = process.communicate(timeout=30)
    assert process.returncode == 0, f"non-zero exit; stderr: {stderr}"
    assert "SHUTDOWN COMPLETE" in stdout
