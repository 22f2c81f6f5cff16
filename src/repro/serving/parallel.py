"""Parallel fan-out of read-only query batches over an engine snapshot.

The executor takes a same-``k`` batch of queries, splits it into contiguous
chunks, and evaluates the chunks concurrently through the engine's read-only
entry point (:meth:`ReverseTopKEngine.query_many_readonly`) on a thread pool
that shares the one engine.  Read-only queries never mutate the index, the
columnar views, or the PMPN plan, so no locking is needed;
NumPy/SciPy kernels release the GIL for the heavy array work.  This pool is
the one place a service parallelises queries: each engine scans its shards
serially, so ``n_workers`` threads use at most ``n_workers`` cores.

Every chunk reports its wall-clock time back as a :class:`WorkerReport`;
the service merges those into its latency/throughput metrics.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
import threading
from typing import List, Optional, Sequence, Tuple

from .._validation import check_non_negative_int
from ..core.query import QueryResult, ReverseTopKEngine
from ..utils.timer import Timer

@dataclass(frozen=True)
class WorkerReport:
    """Wall-clock accounting for one executed chunk."""

    worker: int
    n_queries: int
    seconds: float


class ParallelExecutor:
    """Evaluates same-``k`` query batches across a thread pool.

    ``n_workers <= 1`` degrades to sequential in-process execution (no pool
    is ever created), so the service has a single dispatch path.
    """

    def __init__(
        self,
        engine: ReverseTopKEngine,
        *,
        n_workers: int = 0,
    ) -> None:
        self.engine = engine
        self.n_workers = check_non_negative_int(n_workers, "n_workers")
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def is_parallel(self) -> bool:
        """Whether batches actually fan out across workers."""
        return self.n_workers > 1

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(max_workers=self.n_workers)
            return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent)."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        queries: Sequence[int],
        k: int,
    ) -> Tuple[List[QueryResult], List[WorkerReport]]:
        """Evaluate ``queries`` at depth ``k``; results keep the input order.

        A single same-``k`` batch is split into contiguous chunks across the
        workers (sequential executors keep it whole).  Query ids reach the
        engine as given, so it validates them exactly as :meth:`query` does.
        """
        queries = list(queries)
        if not queries:
            return [], []
        if not self.is_parallel or len(queries) == 1:
            chunks = [queries]
        else:
            chunks = _split_evenly(queries, self.n_workers)
        groups, reports = self._dispatch([(k, chunk) for chunk in chunks])
        return [result for group in groups for result in group], reports

    def run_many(
        self,
        batches: Sequence[Tuple[int, Sequence[int]]],
    ) -> Tuple[List[List[QueryResult]], List[WorkerReport]]:
        """Evaluate several ``(k, queries)`` batches, concurrently when parallel.

        A burst with heterogeneous ``k`` values (or more unique misses than
        one batch holds) produces several independent batches; dispatching
        them together keeps the pool busy instead of awaiting each batch in
        turn.  A single batch falls back to :meth:`run`, which splits it
        across the workers.  Result groups align with the input batches.
        """
        batches = [(int(k), list(queries)) for k, queries in batches]
        if not batches:
            return [], []
        if len(batches) == 1:
            k, queries = batches[0]
            results, reports = self.run(queries, k)
            return [results], reports
        return self._dispatch(batches)

    def _dispatch(
        self, tasks: List[Tuple[int, List[int]]]
    ) -> Tuple[List[List[QueryResult]], List[WorkerReport]]:
        """Execute ``(k, queries)`` work units, one result group per unit.

        In-process when sequential (or for a lone unit, where a pool buys
        nothing), otherwise one pool task per unit.
        """
        groups: List[List[QueryResult]] = []
        reports: List[WorkerReport] = []
        if not self.is_parallel or len(tasks) == 1:
            for worker, (k, queries) in enumerate(tasks):
                with Timer() as timer:
                    group = self.engine.query_many_readonly(queries, k)
                groups.append(group)
                reports.append(WorkerReport(worker, len(queries), timer.elapsed))
            return groups, reports

        pool = self._ensure_pool()
        engine = self.engine

        def task(queries: List[int], k: int) -> Tuple[List[QueryResult], float]:
            with Timer() as timer:
                group = engine.query_many_readonly(queries, k)
            return group, timer.elapsed

        futures = [pool.submit(task, queries, k) for k, queries in tasks]
        for worker, ((k, queries), future) in enumerate(zip(tasks, futures)):
            group, seconds = future.result()
            groups.append(group)
            reports.append(WorkerReport(worker, len(queries), seconds))
        return groups, reports

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ParallelExecutor(n_workers={self.n_workers})"


def _split_evenly(items: List[int], n_chunks: int) -> List[List[int]]:
    """Split ``items`` into at most ``n_chunks`` contiguous, balanced chunks."""
    n_chunks = min(n_chunks, len(items))
    base, extra = divmod(len(items), n_chunks)
    chunks: List[List[int]] = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks
