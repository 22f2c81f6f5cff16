"""Serving runtime: cached, batched, parallel reverse top-k query service.

This layer turns the synchronous :class:`~repro.core.ReverseTopKEngine` into
a serving system that amortizes work across requests:

``cache``
    Version-keyed LRU result cache (:class:`ResultCache`); index refinements
    bump :attr:`ReverseTopKIndex.version` and implicitly invalidate stale
    answers.
``batching``
    In-flight request dedup and same-``k`` batch planning
    (:class:`BatchScheduler`).
``parallel``
    Thread-pool fan-out of read-only batches over the shared engine
    (:class:`ParallelExecutor`).
``snapshot``
    Content-addressed on-disk index archives for warm-start
    (:class:`SnapshotManager`).
``service``
    The :class:`ReverseTopKService` façade wiring the above together, with a
    metrics snapshot (:class:`ServiceMetrics`).

Answers are always identical to direct engine queries — the layer only
changes when and how often the engine runs.
"""

from .batching import BatchPlan, BatchScheduler, Request
from .cache import CacheKey, CacheStats, ResultCache
from .parallel import ParallelExecutor, WorkerReport
from .service import ReverseTopKService, ServiceConfig, ServiceMetrics
from .snapshot import (
    SnapshotManager,
    graph_fingerprint,
    params_fingerprint,
    snapshot_key,
)

__all__ = [
    "BatchPlan",
    "BatchScheduler",
    "CacheKey",
    "CacheStats",
    "ParallelExecutor",
    "Request",
    "ResultCache",
    "ReverseTopKService",
    "ServiceConfig",
    "ServiceMetrics",
    "SnapshotManager",
    "WorkerReport",
    "graph_fingerprint",
    "params_fingerprint",
    "snapshot_key",
]
