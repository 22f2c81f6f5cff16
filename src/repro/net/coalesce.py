"""Cross-connection request coalescing onto the serving pipeline.

The in-process service already deduplicates and batches *within* one
``serve`` burst (:class:`~repro.serving.batching.BatchScheduler`), but a
network server receives each request on its own connection — without a
funnel, a thousand concurrent connections asking the same hot query would
issue a thousand single-request bursts and the scheduler would never see a
duplicate.  :class:`QueryCoalescer` is that funnel:

* **in-flight dedup across connections** — the first arrival of a
  ``(query, k)`` creates a shared future; every later arrival while the
  computation is in flight awaits the *same* future (one engine evaluation,
  N responses);
* **load-adaptive batching** — a unique key arriving while a scan thread
  is free leaves on the next loop tick (same-tick arrivals share the burst);
  keys arriving while every scan thread is busy buffer, and the completion
  of a burst hands the buffer (up to ``max_batch`` keys) to ``service.serve``
  as the next one.  Batches grow because scans take time, never because a
  timer fired: an idle server adds no wait, a loaded one batches itself;
* **only misses leave the loop** — while no burst is running, a key the
  generation's result cache holds is answered on the event loop itself
  (:meth:`~repro.serving.service.ReverseTopKService.cached_answer`, one
  dictionary lookup): at ``submit``, and for every buffered key at the
  boundary where a burst finishes.  Misses go to the thread-pool executor
  via ``loop.run_in_executor``, at most ``scan_threads`` bursts at once, so
  the loop keeps accepting connections and parsing requests while NumPy
  scans the index.  No hit is answered on the loop while a scan is in
  flight: the loop's extra work would compete with the scan thread for the
  GIL, and misses slow down by more than hits gain.

Cancellation safety (pinned by tests): waiters must wrap the shared future
in ``asyncio.shield`` — a client disconnecting or timing out cancels only
its own wait, never the shared batch task, and the in-flight table entry is
removed by the batch completion itself, so later identical requests can
never join a dead future.

Tracing crosses the funnel: a hit answered on the loop records a
``cache.hit`` span under each waiter's span.  For a miss, a waiter
submitting inside an active
:class:`~repro.obs.tracing.Trace` registers its current span as the key's
trace parent.  ``run_in_executor`` does not carry contextvars into worker
threads, so the batch runner activates a fresh ``Trace("coalesce.batch")``
*inside* the worker (``with trace: service.serve(keys)``) — the service and
engine spans attach to that batch tree — and on completion the shared tree
is grafted under every registered parent, annotated with the key's coalesce
fan-in and the burst's size.  Batches with no traced waiter skip all of
this (one dict pop per key).

A coalescer belongs to exactly **one service generation** (one index
version): the rollover layer creates a fresh coalescer per generation, so a
key can never dedup across two different index states.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor
from dataclasses import asdict, dataclass
import time
from typing import Dict, List, Optional, Tuple

from ..core.query import QueryResult
from ..exceptions import ServiceClosedError
from ..obs.tracing import Span, Trace, current_span
from ..serving.service import ReverseTopKService

#: One coalescing key: (query node, depth k).
Key = Tuple[int, int]


@dataclass
class CoalesceStats:
    """Counters of the funnel (shared across generations by the server).

    Attributes
    ----------
    n_submitted:
        Requests entering the funnel.
    n_loop_hits:
        Unique keys answered from the result cache on the event loop,
        without a burst.
    n_coalesced:
        Requests that joined an already-in-flight identical computation.
    n_batches:
        Bursts handed to ``service.serve``.
    n_executed:
        Unique keys evaluated across all bursts.
    n_failed_batches:
        Bursts that raised (every waiter received the exception).
    burst_size_max:
        Largest burst dispatched — how far load has grown the batches.
    """

    n_submitted: int = 0
    n_loop_hits: int = 0
    n_coalesced: int = 0
    n_batches: int = 0
    n_executed: int = 0
    n_failed_batches: int = 0
    burst_size_max: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


def _retrieve_exception(future: "asyncio.Future[QueryResult]") -> None:
    """Mark a failed shared future's exception as observed.

    Every waiter may have timed out or disconnected by the time the batch
    fails; without this callback the event loop would log "exception was
    never retrieved" for a future whose error was handled by design.
    """
    if not future.cancelled():
        future.exception()


class QueryCoalescer:
    """Funnels concurrent connections' queries into shared service bursts.

    Event-loop-confined: ``submit`` must be called from the loop thread
    (the server's connection handlers), which is what makes the in-flight
    table and buffer race-free without locks.  Only cache misses leave the
    loop, via ``executor``, at most ``scan_threads`` (its width) bursts at a
    time.
    """

    def __init__(
        self,
        service: ReverseTopKService,
        executor: Executor,
        *,
        scan_threads: int = 1,
        max_batch: int = 128,
        stats: Optional[CoalesceStats] = None,
    ) -> None:
        if scan_threads < 1:
            raise ValueError(f"scan_threads must be >= 1, got {scan_threads}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.service = service
        self.stats = stats if stats is not None else CoalesceStats()
        self._executor = executor
        self._scan_threads = int(scan_threads)
        self._max_batch = int(max_batch)
        self._inflight: Dict[Key, "asyncio.Future[QueryResult]"] = {}
        #: Traced waiters per in-flight key: the spans the batch tree is
        #: grafted under when the key's result lands (fan-in = list length).
        self._trace_parents: Dict[Key, List[Span]] = {}
        self._buffer: List[Key] = []
        self._flush_scheduled = False
        #: Bursts currently in the executor (what a new key queues behind).
        self.n_running = 0
        self._batch_tasks: "set[asyncio.Task]" = set()
        self._closed = False

    # ------------------------------------------------------------------ #
    # the funnel
    # ------------------------------------------------------------------ #
    def submit(self, query: int, k: int) -> Tuple["asyncio.Future[QueryResult]", bool]:
        """Register one request; returns ``(shared_future, coalesced)``.

        ``coalesced`` is ``True`` when the request joined an identical
        computation already in flight.  A cache hit while no burst runs
        returns an already-settled future.  Await the future through
        ``asyncio.shield`` — cancelling the raw future would detach every
        sibling waiter from its result.
        """
        if self._closed:
            raise ServiceClosedError("coalescer is closed")
        self.stats.n_submitted += 1
        key = (int(query), int(k))
        parent = current_span()
        future = self._inflight.get(key)
        if future is not None:
            if parent is not None:
                self._trace_parents.setdefault(key, []).append(parent)
            self.stats.n_coalesced += 1
            return future, True
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        if self.n_running == 0:
            result = self._cache_hit(key, [parent] if parent is not None else [])
            if result is not None:
                future.set_result(result)
                return future, False
        if parent is not None:
            self._trace_parents.setdefault(key, []).append(parent)
        future.add_done_callback(_retrieve_exception)
        self._inflight[key] = future
        self._buffer.append(key)
        # A free scan thread: leave on the next tick, with this tick's other
        # arrivals.  Otherwise the key waits for a burst to finish.
        if self.n_running < self._scan_threads and not self._flush_scheduled:
            self._flush_scheduled = True
            loop.call_soon(self._flush)
        return future, False

    @property
    def n_inflight(self) -> int:
        """Unique keys currently being (or about to be) computed."""
        return len(self._inflight)

    def _cache_hit(self, key: Key, parents: List[Span]) -> Optional[QueryResult]:
        """Answer ``key`` from the cache on the loop; ``None`` sends it to a burst.

        Only called while no burst runs.  Each traced waiter gets a
        ``cache.hit`` span.  A closed service is a miss here: the burst's
        ``serve`` raises the same error to every waiter.
        """
        started = time.perf_counter()
        try:
            result = self.service.cached_answer(*key)
        except ServiceClosedError:
            return None
        if result is None:
            return None
        self.stats.n_loop_hits += 1
        if parents:
            seconds = time.perf_counter() - started
            for parent in parents:
                parent.record("cache.hit", seconds)
        return result

    def _answer_buffered_hits(self) -> None:
        """At a burst boundary with no burst running: settle buffered hits."""
        misses: List[Key] = []
        for key in self._buffer:
            result = self._cache_hit(key, self._trace_parents.get(key, []))
            if result is None:
                misses.append(key)
                continue
            self._trace_parents.pop(key, None)
            future = self._inflight.pop(key)
            if not future.done():
                future.set_result(result)
        self._buffer = misses

    def _flush(self) -> None:
        """Hand buffered keys to the service, one burst per free scan thread."""
        self._flush_scheduled = False
        loop = asyncio.get_running_loop()
        while self._buffer and self.n_running < self._scan_threads:
            keys = self._buffer[: self._max_batch]
            del self._buffer[: self._max_batch]
            self.n_running += 1
            task = loop.create_task(self._execute(keys))
            # Keep a strong reference: a GC'd batch task would orphan waiters.
            self._batch_tasks.add(task)
            task.add_done_callback(self._batch_tasks.discard)

    async def _execute(self, keys: List[Key]) -> None:
        """Run one burst in the executor and fan results out to waiters.

        The burst task is intentionally detached from every waiter: a
        waiter's cancellation (disconnect, deadline) must never cancel the
        shared computation other waiters depend on.  Keys are removed from
        the in-flight table exactly when their outcome is known — success
        and failure both clear them, so a failed burst cannot poison the
        table for later retries, and both free the scan thread for whatever
        buffered behind this burst.

        When any waiter is traced, the batch runs inside its own
        :class:`Trace` activated *in the worker thread* (contextvars do not
        cross ``run_in_executor``), and the finished batch tree is grafted
        under every waiter's span at fan-out time.
        """
        self.stats.n_batches += 1
        self.stats.burst_size_max = max(self.stats.burst_size_max, len(keys))
        runner = self.service.serve
        batch_trace: Optional[Trace] = None
        if any(key in self._trace_parents for key in keys):
            batch_trace = Trace("coalesce.batch", n_keys=len(keys))

            def runner(keys: List[Key], trace: Trace = batch_trace):
                with trace:
                    return self.service.serve(keys)

        results: List[QueryResult] = []
        failure: Optional[Exception] = None
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(self._executor, runner, keys)
            self.stats.n_executed += len(keys)
        except Exception as exc:
            self.stats.n_failed_batches += 1
            failure = exc
        # Start the next burst before fanning out: it scans while the loop
        # renders this one's responses.  With nothing left scanning, the
        # buffered hits are answered here first, so only misses leave.
        self.n_running -= 1
        if self.n_running == 0:
            self._answer_buffered_hits()
        self._flush()
        for position, key in enumerate(keys):
            future = self._inflight.pop(key, None)
            self._graft_waiters(key, batch_trace)
            if future is None or future.done():
                continue
            if failure is None:
                future.set_result(results[position])
            else:
                future.set_exception(failure)

    def _graft_waiters(self, key: Key, batch_trace: Optional[Trace]) -> None:
        """Attach the completed batch tree under every traced waiter of ``key``.

        Runs just before the key's future settles, so a waiter reading its
        trace after ``await`` always sees the batch subtree.  The subtree is
        shared by reference across waiters (it is complete and never mutated
        through a parent).  Parents registered after the batch dispatched
        untraced are popped and dropped — never leaked.
        """
        waiting = self._trace_parents.pop(key, None)
        if not waiting or batch_trace is None:
            return
        burst_size = batch_trace.root.annotations["n_keys"]
        for parent in waiting:
            parent.annotate(coalesce_fan_in=len(waiting), burst_size=burst_size)
            parent.graft(batch_trace.root)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def aclose(self) -> None:
        """Stop accepting, dispatch nothing further, and settle stragglers.

        Running bursts are awaited (their waiters get real results); keys
        still buffered behind them fail with ``ServiceClosedError``.
        """
        self._closed = True
        buffered, self._buffer = self._buffer, []
        for key in buffered:
            future = self._inflight.pop(key, None)
            self._trace_parents.pop(key, None)
            if future is not None and not future.done():
                future.set_exception(ServiceClosedError("server shutting down"))
        if self._batch_tasks:
            await asyncio.gather(*list(self._batch_tasks), return_exceptions=True)

    def __repr__(self) -> str:
        return (
            f"QueryCoalescer(inflight={len(self._inflight)}, "
            f"buffered={len(self._buffer)}, running={self.n_running})"
        )
