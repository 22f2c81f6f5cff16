"""Fixtures for the network serving tests: a live threaded server, a gated service."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.dynamic import DynamicReverseTopKService
from repro.net import AdmissionPolicy, ServerConfig, start_in_thread
from repro.serving.service import ReverseTopKService


@pytest.fixture()
def dynamic_service(small_web_graph):
    """A fresh dynamic service per test (servers mutate and close it)."""
    service = DynamicReverseTopKService.from_graph(small_web_graph)
    yield service
    if not service.closed:
        service.close()


@pytest.fixture()
def server_handle(dynamic_service):
    """A running server on a background loop thread, torn down after."""
    handle = start_in_thread(
        dynamic_service,
        ServerConfig(admission=AdmissionPolicy(max_pending=128)),
    )
    yield handle
    handle.stop()


class GatedService:
    """A real service whose every ``serve`` burst blocks until released.

    The coalescer's discipline is driven by scan *completions*, so its tests
    need to hold a burst in the executor for exactly as long as the scenario
    says — a gate, not a sleep.  ``entered`` counts bursts that reached the
    worker thread, ``release(n)`` lets ``n`` of them finish.  Cache hits the
    coalescer answers on the loop never reach the gate.
    """

    def __init__(self, service) -> None:
        self.service = service
        self.bursts = []  # key lists, in the order they reached the executor
        self.fail_bursts = set()  # burst positions that raise after the gate
        self.entered = threading.Semaphore(0)
        self.peak_running = 0
        self._gate = threading.Semaphore(0)
        self._running = 0
        self._lock = threading.Lock()

    def serve(self, keys):
        with self._lock:
            position = len(self.bursts)
            self.bursts.append(list(keys))
            self._running += 1
            self.peak_running = max(self.peak_running, self._running)
        self.entered.release()
        released = self._gate.acquire(timeout=10.0)
        with self._lock:
            self._running -= 1
        assert released, "test never released the gate"
        if position in self.fail_bursts:
            raise RuntimeError("engine exploded")
        return self.service.serve(keys)

    def cached_answer(self, query, k):
        """The event loop's cache read, forwarded ungated (it never waits)."""
        return self.service.cached_answer(query, k)

    def release(self, n: int = 1) -> None:
        for _ in range(n):
            self._gate.release()

    async def wait_entered(self, n: int = 1) -> None:
        """Suspend until ``n`` more bursts are blocked inside ``serve``."""
        for _ in range(n):
            assert await asyncio.to_thread(self.entered.acquire, timeout=10.0)


@pytest.fixture()
def gated_service(small_web_graph):
    service = ReverseTopKService.from_graph(small_web_graph)
    yield GatedService(service)
    if not service.closed:
        service.close()
