"""Core contribution of the paper: the reverse top-k RWR search framework.

Modules
-------
``config``
    Parameter dataclasses (``IndexParams``, ``QueryParams``) with the paper's
    defaults (α=0.15, K=200, η=1e-4, δ=0.1, ω=1e-6, ε=1e-10).
``hubs``
    Hub selection: the paper's degree-based heuristic (§4.1.1).
``lbi``
    Algorithm 1 — Lower Bound Indexing via batched BCA with hubs: the hub
    matrix, the kernel's pool worker, single-node rebuild and refinement.
``index``
    Per-node index pieces: the flat ``StateArrays`` of one node, the
    :class:`ColumnarView` the scan reads, residual-mass and size accounting
    (§4.1.3), the atomic file write.
``sharding``
    The :class:`ReverseTopKIndex` itself — global hub data plus ``P ≥ 1``
    contiguous node-range shards, in RAM or memmap-backed — its on-disk
    layout, the per-shard columnar scan stages, and :func:`build_index`.
``pmpn``
    Algorithm 2 — Power Method for Proximity to Node (Theorem 2).
``bounds``
    Algorithm 3 — staircase upper bound for the k-th largest proximity.
``query``
    Algorithm 4 — the online reverse top-k query engine, scanning shard by
    shard.
``baseline``
    Brute-force comparators: BF, IBF and FBF (§3, §5.3).
"""

from .baseline import (
    brute_force_reverse_topk,
    InfeasibleBruteForce,
    FeasibleBruteForce,
)
from .bounds import (
    BoundsWorkspace,
    kth_upper_bound,
    kth_upper_bounds_batch,
    staircase_levels,
)
from .config import IndexParams, QueryParams
from .hubs import degree_union_hubs, select_hubs_by_degree, HubSet
from .index import ColumnarView
from .lbi import rebuild_node_state, refine_node_state
from .pmpn import proximity_to_node, PMPNPlan, PMPNState
from .propagation import BuildReport, KernelWorkspace, PropagationKernel
from .query import ReverseTopKEngine, QueryResult, QueryStatistics
from .sharding import (
    IndexShard,
    ReverseTopKIndex,
    build_index,
    columnar_stage_decisions,
    shard_boundaries,
)

__all__ = [
    "IndexParams",
    "QueryParams",
    "KernelWorkspace",
    "BoundsWorkspace",
    "columnar_stage_decisions",
    "degree_union_hubs",
    "select_hubs_by_degree",
    "HubSet",
    "BuildReport",
    "PropagationKernel",
    "build_index",
    "rebuild_node_state",
    "refine_node_state",
    "ReverseTopKIndex",
    "ColumnarView",
    "proximity_to_node",
    "PMPNPlan",
    "PMPNState",
    "kth_upper_bound",
    "kth_upper_bounds_batch",
    "staircase_levels",
    "ReverseTopKEngine",
    "IndexShard",
    "shard_boundaries",
    "QueryResult",
    "QueryStatistics",
    "brute_force_reverse_topk",
    "InfeasibleBruteForce",
    "FeasibleBruteForce",
]
