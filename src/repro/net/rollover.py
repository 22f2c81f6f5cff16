"""Zero-downtime index rollover: clone, maintain aside, swap atomically.

``DynamicReverseTopKService.apply_updates`` maintains the index *in place*
under the write side of the service's reader/writer lock — correct, but the
write lock excludes every query for the duration of maintenance.  For an
in-process caller that is a few milliseconds of stall; for a network server
holding a thousand keep-alive connections it is a visible latency cliff on
every churn batch.

The rollover layer removes the cliff by never maintaining the index that is
being served:

1. **clone** — :func:`clone_for_rollover` snapshots the current generation
   under the *read* lock: the effective graph is materialized (a
   :class:`~repro.graph.digraph.DiGraph` is immutable, so it is shared, not
   copied) and the engine is pickled/unpickled, which the index's
   ``__getstate__`` hooks turn into a deep, cache-free copy (memory-mapped
   shards re-open their backing files rather than duplicating them);
2. **maintain aside** — the update batch is applied to the clone on a
   dedicated maintenance thread while the old generation keeps answering
   queries with zero added contention;
3. **swap** — the new :class:`ServiceGeneration` becomes current in one
   reference assignment on the event loop; every request dispatched after
   the swap sees the new index version, every request dispatched before it
   completes against the old one.  No request can observe a torn version:
   a generation's ``(generation id, index version)`` pair is fixed at
   creation and embedded in its responses;
4. **retire** — the old generation drains (each in-flight request holds a
   pin) and is then closed, its latency/counter totals folded into the
   manager's retired aggregate so the metrics endpoint never loses history.

A no-op batch (``report.changed`` false — e.g. weight-only updates under
the unweighted walk) discards the clone and keeps serving the old
generation, preserving its warm cache.

Rollovers are serialized by an :class:`asyncio.Lock`; the manager is
event-loop-confined apart from the maintenance work it explicitly sends to
the executor.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Executor
import itertools
import pickle
from typing import Callable, Dict, List, Optional

from ..dynamic.graph import GraphUpdate
from ..dynamic.maintainer import IndexMaintainer, MaintenanceReport
from ..dynamic.service import DynamicReverseTopKService
from ..exceptions import ServiceClosedError
from .coalesce import QueryCoalescer


def clone_for_rollover(
    service: DynamicReverseTopKService,
) -> DynamicReverseTopKService:
    """Deep-copy a dynamic service so updates can be applied off to the side.

    Taken under the source's read lock so the copied engine and graph are
    one consistent index version (concurrent ``refine``/``apply_updates``
    on the source are excluded while the snapshot is taken).  The clone
    starts with a cold cache and its own executor; ``service.graph`` itself
    is shared because a :class:`DiGraph` is immutable.
    """
    with service._index_lock.read():
        service._ensure_open()
        graph = service.graph
        engine = pickle.loads(pickle.dumps(service.engine))
    source = service.maintainer
    maintainer = IndexMaintainer(
        engine,
        rebuild_ratio=source.rebuild_ratio,
        weighted=source.weighted,
    )
    clone = DynamicReverseTopKService(
        engine,
        service.config,
        graph=graph,
        maintainer=maintainer,
        snapshot=service._snapshots,
        _trusted_transition=True,
    )
    # The batch this clone exists for is applied before it is swapped in:
    # its maintenance series continue the source generation's.
    clone.bind_maintenance(service.registry)
    return clone


class ServiceGeneration:
    """One immutable serving epoch: a service, its coalescer, its version.

    Requests pin the generation for their lifetime; retirement waits for
    the pin count to reach zero before the underlying service's resources
    are released, so a swap can never close an index out from under an
    in-flight scan.
    """

    def __init__(
        self,
        generation_id: int,
        service: DynamicReverseTopKService,
        coalescer: QueryCoalescer,
    ) -> None:
        self.generation_id = generation_id
        self.service = service
        self.coalescer = coalescer
        #: Index version served by this generation — fixed at creation,
        #: paired with ``generation_id`` in every response (torn-version
        #: freedom is exactly this pair's immutability).
        self.index_version = service.engine.index.version
        self._pins = 0
        self._retiring = False
        self._drained = asyncio.Event()

    def pin(self) -> None:
        """Mark one in-flight request against this generation."""
        self._pins += 1

    def unpin(self) -> None:
        """Release one in-flight request; may complete a pending retirement."""
        self._pins -= 1
        if self._retiring and self._pins <= 0:
            self._drained.set()

    @property
    def pins(self) -> int:
        return self._pins

    async def retire(self, executor: Optional[Executor] = None) -> None:
        """Drain in-flight pins, then release the generation's resources.

        ``service.close()`` takes the index write lock and joins worker
        pools, so it runs on ``executor`` (or the loop's default pool) —
        never on the event loop thread, where it would stall every other
        connection for the duration of the teardown.
        """
        self._retiring = True
        if self._pins > 0:
            await self._drained.wait()
        await self.coalescer.aclose()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(executor, self.service.close)

    def __repr__(self) -> str:
        return (
            f"ServiceGeneration(id={self.generation_id}, "
            f"version={self.index_version}, pins={self._pins})"
        )


class RolloverManager:
    """Owns the current :class:`ServiceGeneration` and rolls it forward.

    ``apply_updates`` never blocks queries on the serving path: maintenance
    happens on a clone in ``maintenance_executor`` and the only serving-side
    effect is one attribute assignment (the swap) on the event loop.
    """

    def __init__(
        self,
        service: DynamicReverseTopKService,
        *,
        make_coalescer: Callable[[DynamicReverseTopKService], QueryCoalescer],
        maintenance_executor: Executor,
    ) -> None:
        self._make_coalescer = make_coalescer
        self._maintenance_executor = maintenance_executor
        self._ids = itertools.count()
        self._current = ServiceGeneration(
            next(self._ids), service, make_coalescer(service)
        )
        self._rollover_lock = asyncio.Lock()
        self._closed = False
        self.n_rollovers = 0
        self.n_noop_batches = 0
        self._retired: List[Dict[str, object]] = []

    @property
    def current(self) -> ServiceGeneration:
        """The generation new requests must pin (read once per request)."""
        if self._closed:
            raise ServiceClosedError("rollover manager is closed")
        return self._current

    async def apply_updates(self, updates: List[GraphUpdate]) -> MaintenanceReport:
        """Roll the serving state forward by one update batch.

        The old generation serves untouched until the fully maintained clone
        swaps in; it is then drained and closed in the background.  No-op
        batches keep the old generation (and its warm cache) current.
        """
        async with self._rollover_lock:
            if self._closed:
                raise ServiceClosedError("rollover manager is closed")
            old = self._current
            loop = asyncio.get_running_loop()
            clone = await loop.run_in_executor(
                self._maintenance_executor, clone_for_rollover, old.service
            )
            try:
                report = await loop.run_in_executor(
                    self._maintenance_executor, clone.apply_updates, updates
                )
            except Exception:
                await loop.run_in_executor(self._maintenance_executor, clone.close)
                raise
            if not report.changed:
                # Nothing observable changed: keep the warm generation.
                await loop.run_in_executor(self._maintenance_executor, clone.close)
                self.n_noop_batches += 1
                return report
            fresh = ServiceGeneration(
                next(self._ids), clone, self._make_coalescer(clone)
            )
            self._current = fresh  # the atomic swap
            self.n_rollovers += 1
            await self._retire(old)
            return report

    async def _retire(self, generation: ServiceGeneration) -> None:
        await generation.retire(executor=self._maintenance_executor)
        metrics = generation.service.metrics()
        self._retired.append(
            {
                "generation": generation.generation_id,
                "index_version": generation.index_version,
                "n_requests": metrics.n_requests,
                "n_cache_hits": metrics.n_cache_hits,
                "n_engine_queries": metrics.n_engine_queries,
                "n_batches": metrics.n_batches,
                "serve_seconds": metrics.serve_seconds,
            }
        )

    async def aclose(self) -> None:
        """Retire the live generation; further use raises ``ServiceClosedError``."""
        async with self._rollover_lock:
            if self._closed:
                return
            self._closed = True
            await self._retire(self._current)

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready rollover state for the metrics endpoint."""
        current: Optional[Dict[str, object]] = None
        if not self._closed:
            current = {
                "generation": self._current.generation_id,
                "index_version": self._current.index_version,
                "pins": self._current.pins,
            }
        return {
            "n_rollovers": self.n_rollovers,
            "n_noop_batches": self.n_noop_batches,
            "current": current,
            "retired": list(self._retired),
        }
