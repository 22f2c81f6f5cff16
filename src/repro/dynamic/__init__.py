"""Dynamic-graph subsystem: incremental updates with index delta-maintenance.

The paper builds its reverse top-k index once over a static graph; real
proximity graphs (co-authorship, recommendation, spam links — the §6
applications) churn continuously.  This package keeps a built index — and a
live serving façade on top of it — consistent with a stream of edge
mutations at a fraction of rebuild cost:

``graph``
    :class:`GraphUpdate` describes one mutation (insertion, deletion or
    weight change); :func:`apply_batch` validates a batch and edits the
    immutable CSR once, returning the next graph and the touched sources.
``maintainer``
    :class:`IndexMaintainer` — recomputes only the affected transition
    columns, conservatively invalidates the BCA states whose trajectories
    read them, re-expands hub-dependent lower bounds, and escalates to a
    full rebuild past a staleness threshold.  The maintained index stays
    bit-identical to a from-scratch build on the current graph.
``service``
    :class:`DynamicReverseTopKService` — applies update batches under the
    serving write lock, retiring exactly one cache generation per effective
    batch and re-archiving warm-start snapshots under the new graph's
    content key.
"""

from .graph import UPDATE_OPS, GraphUpdate, apply_batch
from .maintainer import (
    DEFAULT_REBUILD_RATIO,
    IndexMaintainer,
    MaintenanceReport,
)
from .service import DynamicReverseTopKService, UpdateMetrics

__all__ = [
    "DEFAULT_REBUILD_RATIO",
    "DynamicReverseTopKService",
    "GraphUpdate",
    "IndexMaintainer",
    "MaintenanceReport",
    "UPDATE_OPS",
    "UpdateMetrics",
    "apply_batch",
]
