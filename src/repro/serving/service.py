"""The :class:`ReverseTopKService` façade — cache, batch, fan out, measure.

The service owns a :class:`ReverseTopKEngine` and serves request bursts
through a fixed pipeline:

1. **cache** — each ``(query, k)`` is probed against the LRU result cache
   under the *current* index version;
2. **dedup + batch** — cache misses are deduplicated in-flight and grouped
   into same-``k`` batches (:class:`BatchScheduler`);
3. **execute** — batches run through the read-only engine entry point,
   optionally fanned across a thread pool
   (:class:`ParallelExecutor`);
4. **measure** — per-query latencies, cache counters, dedup savings and
   worker timings accumulate into the :meth:`ReverseTopKService.metrics`
   snapshot.

Serving never mutates the index.  Refinements that *should* persist go
through :meth:`ReverseTopKService.refine`, which bumps the index version and
thereby invalidates every cached answer computed against the older state.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import scipy.sparse as sp

from .._validation import (
    check_node_index,
    check_non_negative_int,
    check_positive_int,
)
from ..core.config import IndexParams
from ..core.query import QueryResult, ReverseTopKEngine
from ..core.sharding import build_index
from ..exceptions import ServiceClosedError
from ..graph.digraph import DiGraph
from ..obs.registry import MetricsRegistry, get_registry
from ..obs.tracing import trace_span
from ..utils.timer import LatencyStats, Timer
from ..workloads.queries import QueryWorkload
from .batching import BATCH_SIZE_BUCKETS, BatchScheduler, Request
from .cache import CacheStats, ResultCache
from .parallel import ParallelExecutor
from .snapshot import SnapshotManager

PathLikeOrManager = Union[str, "SnapshotManager"]


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the serving pipeline.

    Attributes
    ----------
    cache_capacity:
        Maximum entries in the LRU result cache; ``0`` disables caching.
    max_batch_size:
        Largest same-``k`` batch handed to the executor in one task.
    n_workers:
        Thread count for parallel batch execution; ``0`` or ``1`` runs
        batches sequentially in-process.
    """

    cache_capacity: int = 1024
    max_batch_size: int = 64
    n_workers: int = 0

    def __post_init__(self) -> None:
        check_non_negative_int(self.cache_capacity, "cache_capacity")
        check_positive_int(self.max_batch_size, "max_batch_size")
        check_non_negative_int(self.n_workers, "n_workers")


@dataclass(frozen=True)
class ServiceMetrics:
    """Immutable snapshot of the service counters (the metrics "endpoint").

    Attributes
    ----------
    n_requests:
        Requests received (cache hits included).
    n_cache_hits / n_deduplicated:
        Requests answered from cache / collapsed onto an in-flight duplicate.
    n_engine_queries:
        Queries actually evaluated by the engine.
    n_batches:
        Executor tasks dispatched.
    n_refinements:
        ``update_index=True`` refinement queries served.
    index_version:
        The index mutation counter at snapshot time.
    serve_seconds:
        Wall-clock total across all ``serve`` calls.
    worker_seconds:
        Summed busy time across executor workers (> ``serve_seconds`` means
        real parallel overlap).
    cache:
        The underlying :class:`CacheStats`.
    latency:
        Summary of per-query engine latencies (:meth:`LatencyStats.as_dict`).
    """

    n_requests: int
    n_cache_hits: int
    n_deduplicated: int
    n_engine_queries: int
    n_batches: int
    n_refinements: int
    index_version: int
    serve_seconds: float
    worker_seconds: float
    cache: CacheStats
    latency: Dict[str, float]

    @property
    def throughput_qps(self) -> float:
        """Requests served per wall-clock second (0.0 before any serve)."""
        return self.n_requests / self.serve_seconds if self.serve_seconds else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        return {
            "n_requests": self.n_requests,
            "n_cache_hits": self.n_cache_hits,
            "n_deduplicated": self.n_deduplicated,
            "n_engine_queries": self.n_engine_queries,
            "n_batches": self.n_batches,
            "n_refinements": self.n_refinements,
            "index_version": self.index_version,
            "serve_seconds": self.serve_seconds,
            "worker_seconds": self.worker_seconds,
            "throughput_qps": self.throughput_qps,
            "cache": self.cache.as_dict(),
            "latency": self.latency,
        }


class _ReadWriteLock:
    """Many concurrent readers xor one writer.

    ``serve`` holds the read side while its batches scan the index's columnar
    views; ``refine`` holds the write side while persisting state write-backs
    that rewrite those views in place.  Without this exclusion a scanning
    thread could observe a half-updated column (new lower bounds with the old
    residual mass) and return a wrong, then cached, answer.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writing = False
        self._writers_waiting = 0

    @contextmanager
    def read(self, *, wait: bool = True) -> Iterator[bool]:
        """Hold the read side; yields whether it is held.

        ``wait=False`` never waits on a writer: when one holds the lock or
        is queued for it, the body runs with ``False`` and must not read.
        """
        with self._cond:
            # Writer preference: new readers also yield to a *queued* writer,
            # otherwise overlapping serve bursts could keep the reader count
            # above zero forever and starve refine() indefinitely.
            held = wait or not (self._writing or self._writers_waiting)
            while held and (self._writing or self._writers_waiting):
                self._cond.wait()
            if held:
                self._readers += 1
        try:
            yield held
        finally:
            if held:
                with self._cond:
                    self._readers -= 1
                    if not self._readers:
                        self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writing or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writing = True
        try:
            yield
        finally:
            with self._cond:
                self._writing = False
                self._cond.notify_all()


class ReverseTopKService:
    """Cached, batched, parallel serving façade over a reverse top-k engine.

    Typical usage::

        service = ReverseTopKService.from_graph(graph, snapshot_dir="snapshots")
        results = service.serve([(42, 10), (7, 10), (42, 10)])  # third is a hit
        print(service.metrics().as_dict())

    Answers are always identical to direct ``engine.query`` calls: caching,
    deduplication and parallel fan-out only change *when* and *how often*
    the engine runs, never what it computes.
    """

    def __init__(
        self,
        engine: ReverseTopKEngine,
        config: Optional[ServiceConfig] = None,
        *,
        warm_started: bool = False,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.engine = engine
        self.config = config if config is not None else ServiceConfig()
        self.warm_started = bool(warm_started)
        self._cache = ResultCache(self.config.cache_capacity)
        self._scheduler = BatchScheduler(self.config.max_batch_size)
        self._executor = ParallelExecutor(engine, n_workers=self.config.n_workers)
        self._lock = threading.Lock()
        self._index_lock = _ReadWriteLock()
        self._closed = False
        self._close_lock = threading.Lock()
        self._latency = LatencyStats()
        self._n_requests = 0
        self._n_cache_hits = 0
        self._n_deduplicated = 0
        self._n_engine_queries = 0
        self._n_batches = 0
        self._n_refinements = 0
        self._serve_seconds = 0.0
        self._worker_seconds = 0.0
        self.bind_registry(registry if registry is not None else get_registry())

    def bind_registry(self, registry: MetricsRegistry) -> None:
        """Bind (or re-bind) this service's telemetry to ``registry``.

        The instance counters stay authoritative for :meth:`metrics` (JSON
        shape unchanged, instance-local semantics preserved); the registry
        children are an additive mirror feeding the shared exposition.  The
        network server re-binds rollover clones onto its own registry so a
        generation swap never splits the time series.
        """
        self.registry = registry
        self._obs = {
            "requests": registry.counter(
                "repro_service_requests_total", "Requests received (cache hits included)"
            ),
            "cache_hits": registry.counter(
                "repro_service_cache_hits_total", "Requests answered from the result cache"
            ),
            "deduplicated": registry.counter(
                "repro_service_deduplicated_total",
                "Requests collapsed onto an in-flight duplicate",
            ),
            "engine_queries": registry.counter(
                "repro_service_engine_queries_total", "Queries evaluated by the engine"
            ),
            "batches": registry.counter(
                "repro_service_batches_total", "Executor batch tasks dispatched"
            ),
            "refinements": registry.counter(
                "repro_service_refinements_total",
                "Persisted (update_index=True) refinement queries",
            ),
            "index_version": registry.gauge(
                "repro_index_version", "Current index mutation counter"
            ),
        }
        # One sample list, two exports: the LatencyStats backs the registry
        # histogram, so exact percentiles (JSON) and bucket counts
        # (Prometheus) can never drift apart.
        self._obs["latency"] = registry.histogram(
            "repro_engine_query_seconds", "Per-query engine evaluation seconds"
        ).bind(self._latency)
        self._cache.bind_registry(registry)
        self._scheduler.batch_size_histogram = registry.histogram(
            "repro_batch_size",
            "Planned executor batch sizes (queries per batch)",
            buckets=BATCH_SIZE_BUCKETS,
        )

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_graph(
        cls,
        graph: DiGraph,
        params: Optional[IndexParams] = None,
        *,
        config: Optional[ServiceConfig] = None,
        snapshot_dir: Optional[PathLikeOrManager] = None,
        transition: Optional[sp.spmatrix] = None,
        n_shards: int = 1,
        memory_budget: Optional[int] = None,
    ) -> "ReverseTopKService":
        """Build (or warm-start) a service for ``graph``.

        With ``snapshot_dir`` the index is loaded from a content-addressed
        snapshot when one matches ``(graph, params)`` — cold-start becomes a
        single archive read — and otherwise built once and archived for the
        next start.  ``service.warm_started`` records which path ran.

        ``n_shards`` splits the index into ``P`` contiguous node-range
        shards (one by default).  ``memory_budget`` (bytes) selects the shard
        backing — when the index does not fit, shards are served as
        ``np.memmap`` views over the snapshot layout (``snapshot_dir``
        required) instead of resident arrays.  Answers depend on neither.
        """
        engine, _, warm_started = cls._prepare_engine(
            graph,
            params,
            snapshot_dir,
            transition,
            n_shards=n_shards,
            memory_budget=memory_budget,
        )
        return cls(engine, config, warm_started=warm_started)

    @staticmethod
    def _prepare_engine(
        graph: DiGraph,
        params: Optional[IndexParams],
        snapshot_dir: Optional[PathLikeOrManager],
        transition: Optional[sp.spmatrix],
        *,
        n_shards: int = 1,
        memory_budget: Optional[int] = None,
    ) -> Tuple[ReverseTopKEngine, Optional["SnapshotManager"], bool]:
        """Shared warm-start wiring behind every ``from_graph`` classmethod.

        Returns ``(engine, snapshot_manager, warm_started)``; the manager is
        ``None`` when no snapshot directory was configured.  Kept in one
        place so the static and dynamic service façades can never drift in
        how they derive the transition, coerce the snapshot manager, or
        decide between snapshot load and fresh build.
        """
        from ..graph.transition import transition_matrix

        matrix = transition if transition is not None else transition_matrix(graph)
        manager = (
            snapshot_dir
            if snapshot_dir is None or isinstance(snapshot_dir, SnapshotManager)
            else SnapshotManager(snapshot_dir)
        )
        if manager is None:
            index = build_index(
                graph,
                params,
                transition=matrix,
                n_shards=n_shards,
                memory_budget=memory_budget,
            )
            from_snapshot = False
        else:
            index, from_snapshot = manager.build_or_load(
                graph,
                params,
                transition=matrix,
                n_shards=n_shards,
                memory_budget=memory_budget,
            )
        return ReverseTopKEngine(matrix, index), manager, from_snapshot

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #
    def query(self, query: int, k: int = 10) -> QueryResult:
        """Serve a single request through the full pipeline."""
        return self.serve([(query, k)])[0]

    def serve(self, requests: Sequence[Request]) -> List[QueryResult]:
        """Serve a burst of ``(query, k)`` requests, preserving order.

        The burst goes through cache lookup, in-flight dedup, same-``k``
        batching, and (when configured) parallel fan-out.  Deduplicated and
        cached requests receive independent defensive copies of the shared
        computation (read-only answer arrays are shared; the mutable
        statistics are per-copy), so no caller can corrupt another caller's
        — or the cache's — result.
        """
        self._ensure_open()
        requests = [
            (check_node_index(q, self.engine.n_nodes, "query"), int(k))
            for q, k in requests
        ]
        use_cache = self.config.cache_capacity > 0
        worker_seconds = 0.0
        engine_latency = LatencyStats()
        with trace_span("service.serve") as span, Timer() as wall, \
                self._index_lock.read():
            # A close() racing this burst drains readers through the write
            # side of the index lock before releasing any resource, so a
            # burst that acquired the read side *after* the drain must not
            # proceed onto the shut-down executor.
            self._ensure_open()
            # Read the version only once the read lock is held: a refine()
            # completing in between would otherwise let this burst probe (and
            # repopulate) the cache under the already-dead version key.
            version = self.engine.index.version
            lookup = (
                (lambda request: self._cache.get((request[0], request[1], version)))
                if use_cache
                else None
            )
            with trace_span("batch.plan"):
                plan = self._scheduler.plan(requests, lookup)
            if span is not None:
                span.annotate(
                    n_requests=plan.n_requests,
                    n_cache_hits=plan.n_cache_hits,
                    n_deduplicated=plan.n_deduplicated,
                    n_batches=len(plan.batches),
                    index_version=version,
                )
            # Defensive copies all the way out: the cache keeps its own
            # pristine object, and every awaiting position gets a result
            # whose mutable statistics nobody else holds.
            answered: Dict[int, QueryResult] = {
                position: result.copy() for position, result in plan.cached.items()
            }
            # All batches dispatch together: heterogeneous-k bursts (and
            # same-k overflow chunks) fan across the pool concurrently.
            # (With n_workers > 1 the engine runs on pool threads, outside
            # this trace context; its spans then simply don't attach.)
            with trace_span("batch.execute"):
                groups, reports = self._executor.run_many(plan.batches)
            worker_seconds += sum(report.seconds for report in reports)
            for (k, queries), batch_results in zip(plan.batches, groups):
                for query, result in zip(queries, batch_results):
                    engine_latency.record(result.statistics.seconds)
                    if use_cache:
                        self._cache.put((query, k, version), result)
                    for position in plan.assignments[(query, k)]:
                        answered[position] = result.copy()

        with self._lock:
            self._n_requests += plan.n_requests
            self._n_cache_hits += plan.n_cache_hits
            self._n_deduplicated += plan.n_deduplicated
            self._n_engine_queries += plan.n_unique_misses
            self._n_batches += len(plan.batches)
            self._serve_seconds += wall.elapsed
            self._worker_seconds += worker_seconds
            self._latency.merge(engine_latency)
        obs = self._obs
        obs["requests"].inc(plan.n_requests)
        obs["cache_hits"].inc(plan.n_cache_hits)
        obs["deduplicated"].inc(plan.n_deduplicated)
        obs["engine_queries"].inc(plan.n_unique_misses)
        obs["batches"].inc(len(plan.batches))
        obs["index_version"].set(version)
        return [answered[position] for position in range(len(requests))]

    def cached_answer(self, query: int, k: int) -> Optional[QueryResult]:
        """A cache hit for ``(query, k)`` without ever waiting; else ``None``.

        The event loop's read.  It takes the read side of the index lock only
        if no writer holds it or waits for it, and reads the version under
        it as :meth:`serve` does.  ``None`` (a writer, a miss, caching off)
        counts nothing: the caller sends the key to :meth:`serve`, which
        counts it.  A hit counts one request, one cache hit and this call's
        wall time, as ``serve`` would.
        """
        with Timer() as wall, self._index_lock.read(wait=False) as held:
            if not held:
                return None
            self._ensure_open()
            version = self.engine.index.version
            result = self._cache.get((query, k, version), count_miss=False)
            if result is None:
                return None
            result = result.copy()
        with self._lock:
            self._n_requests += 1
            self._n_cache_hits += 1
            self._serve_seconds += wall.elapsed
        obs = self._obs
        obs["requests"].inc()
        obs["cache_hits"].inc()
        obs["index_version"].set(version)
        return result

    def serve_workload(self, workload: QueryWorkload) -> List[QueryResult]:
        """Serve every query of a :class:`QueryWorkload` at its depth ``k``."""
        return self.serve([(query, workload.k) for query in workload])

    # ------------------------------------------------------------------ #
    # index refinement (the only write path)
    # ------------------------------------------------------------------ #
    def refine(self, query: int, k: int = 10) -> QueryResult:
        """Evaluate one query with ``update_index=True`` (persisting bounds).

        Any refinement written back bumps the index version: cached answers
        computed against the older state stop matching and are purged from
        the cache eagerly.

        Refinement takes the write side of the index lock, so it never
        rewrites the columnar views while an in-flight ``serve`` batch is
        scanning them (thread workers share those arrays).
        """
        self._ensure_open()
        with self._index_lock.write():
            self._ensure_open()
            result = self.engine.query(query, k, update_index=True)
            # Eagerly drop the stranded cache generation: its keys can never
            # match the bumped version again, and LRU aging would leave them
            # pinning heavyweight results until insertion pressure arrives.
            self._cache.purge_versions_below(self.engine.index.version)
            # Capture the post-refinement version while the write lock still
            # pins it: once released, a concurrent refine() may bump it again
            # and the gauge would pair this refinement with a later version.
            version_after = self.engine.index.version
        with self._lock:
            self._n_refinements += 1
        self._obs["refinements"].inc()
        self._obs["index_version"].set(version_after)
        return result

    # ------------------------------------------------------------------ #
    # metrics / lifecycle
    # ------------------------------------------------------------------ #
    def metrics(self) -> ServiceMetrics:
        """A consistent snapshot of every service counter.

        The index version is read under the read side of the index lock (a
        refine() mid-rewrite must not leak a half-bumped version), then the
        counter block is snapshotted under the counter lock.  The two locks
        are deliberately *not* nested: metrics() must never stall a running
        refinement, and keeping the acquisition sequential keeps the lock
        graph acyclic.
        """
        with self._index_lock.read():
            index_version = self.engine.index.version
        with self._lock:
            return ServiceMetrics(
                n_requests=self._n_requests,
                n_cache_hits=self._n_cache_hits,
                n_deduplicated=self._n_deduplicated,
                n_engine_queries=self._n_engine_queries,
                n_batches=self._n_batches,
                n_refinements=self._n_refinements,
                index_version=index_version,
                serve_seconds=self._serve_seconds,
                worker_seconds=self._worker_seconds,
                cache=self._cache.stats(),
                latency=self._latency.as_dict(),
            )

    def clear_cache(self) -> None:
        """Drop every cached answer (counters reset too)."""
        self._cache.clear()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run (or is running)."""
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServiceClosedError(f"{type(self).__name__} is closed")

    def close(self) -> None:
        """Release the executor's worker pool (idempotent, concurrency-safe).

        Safe to call from any thread, any number of times, including while
        ``serve``/``refine`` calls are in flight:

        * the closed flag flips first, so new requests fail fast with
          :class:`~repro.exceptions.ServiceClosedError` instead of racing
          the teardown;
        * the write side of the index lock is then acquired once, draining
          every in-flight request before any resource is released (a burst
          that slipped past the flag re-checks it under the read lock);
        * concurrent ``close`` calls serialize on an internal lock — the
          second caller returns only after the teardown completed.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            # Drain: every in-flight serve() holds the read side and every
            # refine()/apply_updates() the write side; acquiring (and
            # immediately releasing) the write side waits them all out.
            with self._index_lock.write():
                pass
            self._executor.close()

    def __enter__(self) -> "ReverseTopKService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ReverseTopKService(n_nodes={self.engine.n_nodes}, "
            f"cache={self.config.cache_capacity}, "
            f"batch={self.config.max_batch_size}, "
            f"workers={self.config.n_workers})"
        )
