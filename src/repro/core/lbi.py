"""Algorithm 1 — Lower Bound Indexing (LBI) via batched BCA with hubs (§4.1.2).

For every node ``u`` the indexer runs a *batched* adaptation of BCA:

1. inject one unit of ink at ``u``;
2. at each iteration, take **all** non-hub nodes holding at least ``eta``
   residue ink (the set ``L_t``), retain an ``alpha`` share of their residue
   and forward the rest along out-edges;
3. ink arriving at a hub is parked in the hub-ink vector ``s`` (it will be
   expanded exactly through the pre-computed hub proximities ``P_H``);
4. stop once the total residue drops to ``delta`` (or no node reaches
   ``eta``), then record the top-``K`` values of ``p^t_u = w + P_H s`` as the
   node's lower bounds.

Hub proximity vectors are computed exactly with the power method, rounded
(entries below ``omega`` zeroed) and stored as the columns of ``P_H``.

This module holds the pieces of Algorithm 1: the exact hub matrix, the
default hub selection, the process-pool worker that runs the propagation
kernel over a list of sources, and the single-node rebuild and query-time
refinement steps.  All ink movement is delegated to the one propagation
kernel (:mod:`repro.core.propagation`).  The builder that puts the pieces
together, shard by shard, is :func:`repro.core.sharding.build_index`;
per-source bitwise determinism of the kernel makes its result the same for
every shard count and worker count.  The seed's per-node dict loop lives on
under ``tests/`` as the reference oracle the kernel is tested against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..graph.digraph import DiGraph
from ..graph.transition import transition_matrix
from ..obs.registry import get_registry
from ..rwr.power_method import proximity_vector
from ..utils.sparsetools import top_k_descending
from .config import IndexParams
from .hubs import HubSet, degree_union_hubs, select_hubs_by_degree
from .index import StateArrays
from .propagation import (
    BuildReport,
    PropagationKernel,
    RefinementWorkingSet,
    _HubExpansion,
)
# ``assemble_store`` is bound here only so benchmarks/perf/trace.py's wrap
# table resolves; the builder in repro.core.sharding calls its own binding.
from .statestore import CollectedStates, assemble_store  # noqa: F401

if TYPE_CHECKING:
    from .sharding import ReverseTopKIndex


def _compute_hub_matrix(
    transition: sp.spmatrix,
    hubs: HubSet,
    params: IndexParams,
) -> Tuple[sp.csc_matrix, np.ndarray, Dict[int, np.ndarray]]:
    """Exact hub proximity vectors, rounded per §4.1.3.

    Returns the ``n x |H|`` CSC matrix ``P_H``, the per-hub mass removed by
    rounding (``hub_deficit``, used to keep the upper bound sound), and the
    *exact* (un-rounded) top-``K`` proximity values of every hub.  The exact
    top-K lists are what the index stores as the hubs' lower bounds — they
    cost no extra space and keep hub decisions exact regardless of ``omega``.

    Every column is an independent solve, so ``hubs`` may be any subset of an
    index's hub set: the dynamic maintainer passes just the hubs an update
    batch can have moved and splices the returned columns (one per given hub,
    in the given order) into the matrix it already holds.
    """
    n = transition.shape[0]
    omega = params.rounding_threshold
    columns = []
    deficits = np.zeros(len(hubs), dtype=np.float64)
    exact_top_k: Dict[int, np.ndarray] = {}
    # The power method multiplies by rows; convert once, not once per hub.
    by_rows = transition.tocsr()
    for position, hub in enumerate(hubs):
        exact = proximity_vector(
            by_rows, hub, alpha=params.alpha, tolerance=params.tolerance
        ).vector
        exact_top_k[int(hub)] = top_k_descending(exact, params.capacity)
        if omega > 0:
            kept = np.where(exact >= omega, exact, 0.0)
        else:
            kept = exact
        deficits[position] = float(exact.sum() - kept.sum())
        columns.append(sp.csc_matrix(kept.reshape(-1, 1)))
    if columns:
        hub_matrix = sp.hstack(columns, format="csc")
    else:
        hub_matrix = sp.csc_matrix((n, 0))
    return hub_matrix, deficits, exact_top_k


def default_hub_selection(graph: DiGraph, params: IndexParams) -> HubSet:
    """The hub set :func:`~repro.core.sharding.build_index` selects by default.

    One shared definition of the default policy (the degree heuristic of
    §4.1.1, or no hubs when the budget is zero), so the test oracles pick
    the hubs a from-scratch build picks.
    """
    if params.hub_budget > 0:
        return select_hubs_by_degree(graph, params.hub_budget)
    return HubSet(())


def _resolve_build_inputs(
    graph: DiGraph | sp.spmatrix,
    params: Optional[IndexParams],
    hubs: Optional[HubSet],
    transition: Optional[sp.spmatrix],
) -> Tuple[sp.csc_matrix, int, IndexParams, HubSet]:
    """The builder's preamble: transition, node count, clamped params, hubs."""
    if isinstance(graph, DiGraph):
        matrix = transition if transition is not None else transition_matrix(graph)
        n = graph.n_nodes
    else:
        matrix = graph if transition is None else transition
        n = matrix.shape[0]
        graph = None  # type: ignore[assignment]

    matrix = sp.csc_matrix(matrix)
    if params is None:
        params = IndexParams()
    params = params.for_graph(n)

    if hubs is None:
        if graph is not None:
            hubs = default_hub_selection(graph, params)
        elif params.hub_budget > 0:
            hubs = _select_hubs_from_matrix(matrix, params.hub_budget)
        else:
            hubs = HubSet(())
    return matrix, n, params, hubs


def _emit_build_metrics(report: BuildReport) -> None:
    """Mirror one :class:`BuildReport` into the process-wide registry.

    Index builds run from library code (no server to own a registry), so
    build telemetry lands in the default registry: build counts and indexed
    nodes, plus per-stage seconds — the same exposition the serving layer
    scrapes, per the observability layer's one-API rule.
    """
    registry = get_registry()
    registry.counter(
        "repro_index_builds_total", "Completed index builds"
    ).inc()
    registry.counter(
        "repro_index_build_nodes_total", "Nodes (re)indexed across builds"
    ).inc(report.n_targets)
    stage_family = registry.counter(
        "repro_index_build_seconds_total",
        "Seconds per index-build phase",
        labels=("stage",),
    )
    for stage, seconds in report.stage_seconds.items():
        stage_family.labels(stage=stage).inc(seconds)


#: Per-process kernel for parallel builds, installed by the pool initializer
#: so the (identical, read-only) matrices ship once per worker instead of
#: once per task, and task payloads are just source-id lists.
_WORKER_KERNEL: Optional[PropagationKernel] = None


def _init_shard_worker(
    matrix: sp.csc_matrix,
    hub_mask: np.ndarray,
    params: IndexParams,
    hubs: HubSet,
    hub_matrix: sp.csc_matrix,
) -> None:
    global _WORKER_KERNEL
    _WORKER_KERNEL = PropagationKernel(
        matrix, hub_mask, params, hubs=hubs, hub_matrix=hub_matrix
    )


def _collect_shard(sources: List[int]) -> CollectedStates:
    """Process-pool worker: run one list of sources into flat collected arrays.

    The return payload is plain NumPy arrays (cheap to pickle), not per-node
    Python objects.
    """
    return _WORKER_KERNEL.run(sources)


def rebuild_node_state(
    node: int,
    transition: sp.csc_matrix,
    hub_mask: np.ndarray,
    params: IndexParams,
    expansion: _HubExpansion,
) -> StateArrays:
    """From-scratch BCA state for one non-hub node, as flat segments.

    What invalidation does to a node whose buffered state touched a mutated
    transition column: the state is reset to one unit of residue ink and
    re-refined exactly as :func:`~repro.core.sharding.build_index` would, so
    the result is bit-identical to the state a full rebuild on ``transition``
    produces.
    ``expansion`` must wrap the hub matrix computed for the *new* transition.
    """
    if hub_mask[node]:
        raise ValueError(
            f"node {node} is a hub; hub states are rebuilt from the exact "
            "hub proximities, not with BCA"
        )
    kernel = PropagationKernel(
        transition,
        hub_mask,
        params,
        hubs=expansion.hubs,
        hub_matrix=expansion.hub_matrix,
    )
    (_, arrays), = kernel.run([node]).state_arrays()
    return arrays


def refine_node_state(
    working: RefinementWorkingSet,
    index: ReverseTopKIndex,
    transition: sp.csc_matrix,
    hub_mask: np.ndarray,
    *,
    kernel: Optional[PropagationKernel] = None,
) -> bool:
    """One refinement step used by the online query (Algorithm 4, line 13).

    Advances a :class:`~repro.core.propagation.RefinementWorkingSet` by a
    single batched BCA iteration in which **every** node holding residue
    pushes — one power-iteration step on ``r``.  Each pushed unit retains an
    ``alpha`` share, so the residual mass falls to at most ``1 - alpha`` of
    itself per step whatever ``eta`` the index was built with (``eta`` governs
    construction only).  The step refreshes the top-K lower bounds itself.

    The query engine loads one working set per candidate
    (``kernel.load(index.state_arrays(node))``) and calls this once per
    iteration.

    ``kernel`` lets hot callers (the query engine) reuse one prepared kernel
    across refinements instead of re-deriving it per call.  Returns ``False``
    (leaving the working set untouched) only when no residue remains at all.
    """
    if kernel is None:
        kernel = PropagationKernel(
            transition, hub_mask, index.params,
            hubs=index.hubs, hub_matrix=index.hub_matrix,
        )
    return kernel.step(working)


def _select_hubs_from_matrix(matrix: sp.csc_matrix, budget: int) -> HubSet:
    """Degree-based hub selection when only the transition matrix is available.

    Column ``j`` of the transition matrix lists the out-neighbours of ``j``;
    rows list in-edges.  The non-zero counts therefore give out- and
    in-degrees without needing the original graph object.  Tie-breaking is
    shared with :func:`~repro.core.hubs.select_hubs_by_degree` through
    :func:`~repro.core.hubs.degree_union_hubs` so the two selectors cannot
    drift.
    """
    csc = matrix.tocsc()
    out_degree = np.diff(csc.indptr)
    csr = matrix.tocsr()
    in_degree = np.diff(csr.indptr)
    return degree_union_hubs(in_degree, out_degree, budget)
