"""Live serving over a mutating graph: the dynamic service façade.

:class:`DynamicReverseTopKService` extends the static
:class:`~repro.serving.service.ReverseTopKService` with the one thing a
production proximity service needs that the paper's offline/online split
does not cover: **applying graph updates while serving**.

``apply_updates`` runs entirely under the write side of the service's
writer-preferring index lock, so in-flight query bursts never observe a
half-maintained index:

1. the batch is buffered into the :class:`DynamicGraph` overlay and drained
   into a fresh compacted CSR plus the touched-source set;
2. the :class:`IndexMaintainer` delta-maintains the index (conservative
   invalidation; full rebuild past the staleness threshold), bumping the
   index version exactly once — which retires every cached answer of the
   previous graph generation from the LRU :class:`ResultCache`;
3. when a :class:`SnapshotManager` is configured, the maintained index is
   re-archived under the *new* graph's content key, so a restart against the
   mutated graph warm-starts — the old archive misses naturally, since the
   key hashes the CSR arrays.

A pure no-op batch (e.g. weight changes under the unweighted walk) leaves
the version untouched and the cache warm.
"""

from __future__ import annotations

from dataclasses import dataclass
import threading
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from ..core.config import IndexParams
from ..core.query import ReverseTopKEngine
from ..graph.digraph import DiGraph
from ..serving.service import ReverseTopKService, ServiceConfig
from ..serving.snapshot import SnapshotManager
from .graph import DynamicGraph, GraphUpdate
from .maintainer import (
    DEFAULT_REBUILD_RATIO,
    IndexMaintainer,
    MaintenanceReport,
)

PathLikeOrManager = Union[str, SnapshotManager]


def _same_matrix(candidate: sp.spmatrix, expected: sp.csc_matrix) -> bool:
    """Whether ``candidate`` is bit-identical to the canonical ``expected``."""
    matrix = sp.csc_matrix(candidate, copy=True)
    matrix.sum_duplicates()
    matrix.eliminate_zeros()
    matrix.sort_indices()
    return (
        matrix.shape == expected.shape
        and np.array_equal(matrix.indptr, expected.indptr)
        and np.array_equal(matrix.indices, expected.indices)
        and np.array_equal(matrix.data, expected.data)
    )


@dataclass(frozen=True)
class UpdateMetrics:
    """Cumulative counters for the update path (the write-side "endpoint").

    Attributes
    ----------
    n_update_batches / n_updates:
        ``apply_updates`` calls, and individual edge mutations applied.
    n_noop_batches:
        Batches that left the transition (and therefore the index and the
        cache) untouched.
    n_invalidated / n_rematerialized:
        Total states reset + re-refined, and lower-bound re-expansions.
    n_full_rebuilds:
        Batches that escalated to a from-scratch rebuild.
    update_seconds:
        Wall-clock total spent inside maintenance.
    index_version:
        Index version at snapshot time.
    """

    n_update_batches: int
    n_updates: int
    n_noop_batches: int
    n_invalidated: int
    n_rematerialized: int
    n_full_rebuilds: int
    update_seconds: float
    index_version: int

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        return {
            "n_update_batches": self.n_update_batches,
            "n_updates": self.n_updates,
            "n_noop_batches": self.n_noop_batches,
            "n_invalidated": self.n_invalidated,
            "n_rematerialized": self.n_rematerialized,
            "n_full_rebuilds": self.n_full_rebuilds,
            "update_seconds": self.update_seconds,
            "index_version": self.index_version,
        }


class DynamicReverseTopKService(ReverseTopKService):
    """Cached, batched, parallel serving over a graph that changes underneath.

    Typical usage::

        service = DynamicReverseTopKService.from_graph(graph)
        service.query(42, 10)                      # served + cached
        service.apply_updates([GraphUpdate.add(3, 7)])
        service.query(42, 10)                      # recomputed on the new graph

    Every answer is identical to a from-scratch engine on the *current*
    graph; ``update_metrics()`` reports what maintenance cost.
    """

    def __init__(
        self,
        engine: ReverseTopKEngine,
        config: Optional[ServiceConfig] = None,
        *,
        graph: Union[DiGraph, DynamicGraph],
        maintainer: Optional[IndexMaintainer] = None,
        snapshot: Optional[PathLikeOrManager] = None,
        warm_started: bool = False,
        registry=None,
        _trusted_transition: bool = False,
    ) -> None:
        super().__init__(engine, config, warm_started=warm_started, registry=registry)
        self.graph = (
            graph if isinstance(graph, DynamicGraph) else DynamicGraph(graph)
        )
        if self.graph.n_nodes != engine.n_nodes:
            raise ValueError(
                f"graph has {self.graph.n_nodes} nodes but the engine covers "
                f"{engine.n_nodes}"
            )
        # The default maintainer assumes the unweighted walk; engines built
        # on the weighted transition must pass an IndexMaintainer configured
        # with weighted=True (from_graph does this from its `weighted` flag).
        self.maintainer = (
            maintainer if maintainer is not None else IndexMaintainer(engine)
        )
        if self.maintainer.engine is not engine:
            raise ValueError("maintainer must wrap the service's engine")
        # Catch graph/engine/maintainer mismatches at construction, not at
        # the first apply_updates: column splicing uses the current
        # transition as its baseline, so a graph that doesn't match it — or
        # a weighted engine paired with an unweighted maintainer — would
        # silently produce a hybrid matrix and wrong answers.
        # ``_trusted_transition`` is an internal fast path for from_graph,
        # which just derived the transition from this very graph — the check
        # would be tautological there, and warm start exists to be fast.
        if not _trusted_transition:
            from ..graph.transition import (
                transition_matrix,
                weighted_transition_matrix,
            )

            builder = (
                weighted_transition_matrix
                if self.maintainer.weighted
                else transition_matrix
            )
            if not _same_matrix(
                engine.transition, builder(self.graph.materialize())
            ):
                raise ValueError(
                    "the engine's transition does not match the "
                    f"{'weighted' if self.maintainer.weighted else 'unweighted'} "
                    "transition of the graph — pass the graph the engine was "
                    "built on, and a maintainer whose `weighted` flag matches "
                    "the walk variant"
                )
        self._snapshots = (
            snapshot
            if snapshot is None or isinstance(snapshot, SnapshotManager)
            else SnapshotManager(snapshot)
        )
        self._update_lock = threading.Lock()
        self._n_update_batches = 0
        self._n_updates = 0
        self._n_noop_batches = 0
        self._n_invalidated = 0
        self._n_rematerialized = 0
        self._n_full_rebuilds = 0
        self._update_seconds = 0.0

    def bind_registry(self, registry) -> None:
        """Extend the base binding with maintenance-path instruments."""
        super().bind_registry(registry)
        self.bind_maintenance(registry)

    def bind_maintenance(self, registry) -> None:
        """Bind only the update-path series (plain counters) to ``registry``.

        A rollover clone applies its batch *before* it enters serving, where
        the server re-binds everything; binding these alone, up front, lands
        that batch with the rest of the server's series without touching the
        serving-side instruments the live generation still owns.
        """
        batches = registry.counter(
            "repro_update_batches_total",
            "apply_updates batches by outcome",
            labels=("outcome",),
        )
        hub_columns = registry.counter(
            "repro_maintenance_hub_columns_total",
            "Hub proximity columns of applied batches: re-solved because the "
            "hub reaches a changed column, or reused untouched",
            labels=("outcome",),
        )
        self._dyn_obs = {
            "batch_applied": batches.labels(outcome="applied"),
            "batch_noop": batches.labels(outcome="noop"),
            "updates": registry.counter(
                "repro_updates_total", "Individual edge mutations applied"
            ),
            "invalidated": registry.counter(
                "repro_maintenance_invalidated_total",
                "Index states reset and re-refined by maintenance",
            ),
            "rematerialized": registry.counter(
                "repro_maintenance_rematerialized_total",
                "Lower-bound re-expansions performed by maintenance",
            ),
            "hubs_resolved": hub_columns.labels(outcome="resolved"),
            "hubs_reused": hub_columns.labels(outcome="reused"),
            "full_rebuilds": registry.counter(
                "repro_maintenance_full_rebuilds_total",
                "Update batches escalated to a from-scratch rebuild",
            ),
            "seconds": registry.counter(
                "repro_maintenance_seconds_total",
                "Wall-clock seconds spent inside index maintenance",
            ),
        }

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
        weighted: bool = False,
        rebuild_ratio: float = DEFAULT_REBUILD_RATIO,
        hub_policy: str = "pinned",
        n_shards: int = 1,
        memory_budget: Optional[int] = None,
        scan_workers: int = 0,
        scan_precision: str = "float64",
    ) -> "DynamicReverseTopKService":
        """Build (or warm-start) a dynamic service for ``graph``.

        Mirrors :meth:`ReverseTopKService.from_graph`, additionally keeping
        the snapshot manager around so every applied update batch re-archives
        the maintained index under the mutated graph's content key.
        ``weighted`` selects the walk variant — the maintainer must replay
        the same column arithmetic the transition was built with, so a
        ``transition`` passed explicitly is validated to be exactly the
        declared variant's matrix (delta maintenance cannot rebuild columns
        of an arbitrary custom transition).  ``rebuild_ratio`` and
        ``hub_policy`` configure the :class:`IndexMaintainer` (see its
        docstring for the trade-offs).

        ``n_shards`` / ``memory_budget`` / ``scan_workers`` shape the index
        exactly as on the static service: maintenance writes route to the
        owning shards' stores through the index's ``apply_updates`` (a full
        rebuild through ``adopt``), the version bump stays global (one
        retired cache generation per batch), and the re-archive after each
        batch persists the layout under the new graph's key.  Note that a
        full rebuild builds its shards in RAM; memmap backing returns at the
        next warm start from the re-archived layout.
        """
        from ..graph.transition import transition_matrix, weighted_transition_matrix

        builder = weighted_transition_matrix if weighted else transition_matrix
        matrix = builder(graph)
        if transition is not None and not _same_matrix(transition, matrix):
            raise ValueError(
                "transition does not match the "
                f"{'weighted' if weighted else 'unweighted'} transition of the "
                "graph; delta maintenance can only rebuild columns of the "
                "standard walk variants (pass weighted=True for the weighted "
                "one, or drive IndexMaintainer directly)"
            )
        engine, manager, from_snapshot = cls._prepare_engine(
            graph,
            params,
            snapshot_dir,
            matrix,
            n_shards=n_shards,
            memory_budget=memory_budget,
            scan_workers=scan_workers,
            scan_precision=scan_precision,
        )
        maintainer = IndexMaintainer(
            engine,
            rebuild_ratio=rebuild_ratio,
            weighted=weighted,
            hub_policy=hub_policy,
        )
        return cls(
            engine,
            config,
            graph=graph,
            maintainer=maintainer,
            snapshot=manager,
            warm_started=from_snapshot,
            _trusted_transition=True,
        )

    # ------------------------------------------------------------------ #
    # the update path
    # ------------------------------------------------------------------ #
    def apply_updates(
        self, updates: Iterable[Union[GraphUpdate, Tuple]]
    ) -> MaintenanceReport:
        """Apply a batch of edge mutations and delta-maintain the index.

        The whole batch is one atomic transition for readers: queries either
        see the pre-batch index (and cache generation) or the fully
        maintained post-batch one.  A batch that fails *validation*
        (duplicate add, missing remove, bad weight) is rejected wholesale —
        no prefix of it is buffered for a later call to commit silently.

        If *maintenance* itself raises after the (already validated) batch
        was committed to the graph, the exception propagates with the graph
        mutated but the index not yet maintained; the touched columns stay
        marked dirty, so any subsequent successful call — including an
        empty ``apply_updates([])`` retry — re-maintains them.  Do not
        resubmit the same batch: its mutations are already in the graph.

        Returns the maintainer's report.
        """
        self._ensure_open()
        batch: List[GraphUpdate] = [GraphUpdate.coerce(item) for item in updates]
        with self._index_lock.write():
            # close() drains writers through this same lock before releasing
            # resources; a batch that acquired it afterwards must not mutate
            # a service whose pools are already shut down.
            self._ensure_open()
            # Rehearse the whole batch against the current effective graph
            # first: a mid-batch validation failure (duplicate add, missing
            # remove) must reject the batch atomically instead of leaving
            # its valid prefix in the live overlay.
            rehearsal = DynamicGraph(self.graph.materialize())
            rehearsal.apply_updates(batch)
            self.graph.apply_updates(batch)  # identical state: cannot fail
            version_before = self.engine.index.version
            new_graph, touched = self.graph.drain()
            try:
                report = self.maintainer.apply(new_graph, touched)
            except Exception:
                # The graph is committed but the index is not maintained:
                # keep the columns marked dirty so the next apply (or an
                # explicit retry) re-invalidates them instead of serving
                # stale bounds forever.
                self.graph.mark_touched(touched)
                raise
            version_after = self.engine.index.version
            if version_after != version_before:
                # The bump just retired one whole cache generation; drop its
                # stranded entries eagerly — LRU aging alone would leave the
                # dead keys pinning heavyweight results under churn.
                self._cache.purge_versions_below(version_after)
        if report.changed and self._snapshots is not None:
            # Re-archive outside the write lock so serving resumes while the
            # layout is written; the read lock keeps writers (and therefore
            # index mutation) out while the states are serialized.
            # Content-keyed on the new CSR: the pre-update archive misses
            # naturally on the next start, this one hits.
            with self._index_lock.read():
                if self.engine.index.version == version_after:
                    self._snapshots.store(
                        self.engine.index,
                        new_graph,
                        transition=self.engine.transition,
                    )
                # else: a concurrent writer moved the index past this
                # batch's state — skip rather than archive a mixture (at
                # worst the next start rebuilds).
        with self._update_lock:
            self._n_update_batches += 1
            self._n_updates += len(batch)
            self._n_noop_batches += not report.changed
            self._n_invalidated += report.n_invalidated
            self._n_rematerialized += report.n_rematerialized
            self._n_full_rebuilds += report.full_rebuild
            self._update_seconds += report.seconds
        obs = self._dyn_obs
        obs["batch_noop" if not report.changed else "batch_applied"].inc()
        obs["updates"].inc(len(batch))
        obs["invalidated"].inc(report.n_invalidated)
        obs["rematerialized"].inc(report.n_rematerialized)
        if report.changed:
            obs["hubs_resolved"].inc(report.n_hub_columns)
            obs["hubs_reused"].inc(len(self.engine.index.hubs) - report.n_hub_columns)
        obs["full_rebuilds"].inc(int(report.full_rebuild))
        obs["seconds"].inc(report.seconds)
        self._obs["index_version"].set(version_after)
        return report

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #
    def update_metrics(self) -> UpdateMetrics:
        """A consistent snapshot of the update-path counters.

        The version is read under the read side of the index lock so a
        concurrent ``apply_updates`` mid-rewrite can't leak a half-bumped
        value; the locks stay sequential (never nested) to keep the global
        acquisition graph acyclic.
        """
        with self._index_lock.read():
            index_version = self.engine.index.version
        with self._update_lock:
            return UpdateMetrics(
                n_update_batches=self._n_update_batches,
                n_updates=self._n_updates,
                n_noop_batches=self._n_noop_batches,
                n_invalidated=self._n_invalidated,
                n_rematerialized=self._n_rematerialized,
                n_full_rebuilds=self._n_full_rebuilds,
                update_seconds=self._update_seconds,
                index_version=index_version,
            )

    def __repr__(self) -> str:
        return (
            f"DynamicReverseTopKService(n_nodes={self.engine.n_nodes}, "
            f"n_edges={self.graph.n_edges}, "
            f"cache={self.config.cache_capacity}, "
            f"workers={self.config.n_workers})"
        )
