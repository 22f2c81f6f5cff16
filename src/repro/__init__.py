"""repro — Reverse top-k proximity search on graphs with Random Walk with Restart.

A from-scratch reproduction of *"Reverse Top-k Search using Random Walk with
Restart"* (Yu, Mamoulis, Su; PVLDB 7(5), 2014).

The package is organised in layers:

* :mod:`repro.graph` — graph substrate (directed graphs, transition matrices,
  generators, dataset stand-ins, I/O);
* :mod:`repro.rwr` — RWR proximity primitives (power method, direct solvers,
  classic BCA, Monte Carlo, PageRank);
* :mod:`repro.core` — the paper's contribution (lower-bound index, PMPN,
  staircase upper bounds, online query engine, brute-force baselines);
* :mod:`repro.topk` — top-k RWR search baselines from related work;
* :mod:`repro.apps` — applications: spam detection, author popularity,
  product influence;
* :mod:`repro.workloads`, :mod:`repro.evaluation` — workload generators and
  the experiment harness that regenerates the paper's tables and figures;
* :mod:`repro.serving` — the serving runtime: result caching, request
  batching/dedup, thread/process parallel execution, and warm-start index
  snapshots behind the :class:`ReverseTopKService` façade;
* :mod:`repro.dynamic` — the dynamic-graph subsystem: a delta overlay over
  the immutable CSR, incremental index maintenance with conservative state
  invalidation, and the :class:`DynamicReverseTopKService` update path.

Quickstart
----------
>>> from repro import ReverseTopKEngine
>>> from repro.graph import copying_web_graph
>>> graph = copying_web_graph(500, seed=7)
>>> engine = ReverseTopKEngine.build(graph)
>>> result = engine.query(42, k=10)
>>> sorted(result.nodes)[:3]  # doctest: +SKIP
[3, 17, 42]
"""

from .core import (
    ColumnarView,
    IndexParams,
    QueryParams,
    ReverseTopKEngine,
    ReverseTopKIndex,
    QueryResult,
    QueryStatistics,
    build_index,
    BuildReport,
    PropagationKernel,
    kth_upper_bounds_batch,
    proximity_to_node,
    brute_force_reverse_topk,
)
from .dynamic import (
    DynamicGraph,
    DynamicReverseTopKService,
    GraphUpdate,
    IndexMaintainer,
    MaintenanceReport,
)
from .exceptions import (
    ReproError,
    GraphError,
    ConvergenceError,
    InvalidParameterError,
    QueryError,
)
from .graph import DiGraph, transition_matrix, weighted_transition_matrix
from .serving import (
    ReverseTopKService,
    ServiceConfig,
    ServiceMetrics,
    SnapshotManager,
)

__version__ = "1.0.0"

__all__ = [
    "ColumnarView",
    "IndexParams",
    "QueryParams",
    "ReverseTopKEngine",
    "ReverseTopKIndex",
    "QueryResult",
    "QueryStatistics",
    "build_index",
    "BuildReport",
    "PropagationKernel",
    "kth_upper_bounds_batch",
    "proximity_to_node",
    "brute_force_reverse_topk",
    "DiGraph",
    "transition_matrix",
    "weighted_transition_matrix",
    "ReverseTopKService",
    "ServiceConfig",
    "ServiceMetrics",
    "SnapshotManager",
    "DynamicGraph",
    "DynamicReverseTopKService",
    "GraphUpdate",
    "IndexMaintainer",
    "MaintenanceReport",
    "ReproError",
    "GraphError",
    "ConvergenceError",
    "InvalidParameterError",
    "QueryError",
    "__version__",
]
