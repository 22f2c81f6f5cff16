"""Reference oracles: the seed's per-node BCA loop and Algorithm 4's per-node scan.

Neither runs in production.  :class:`~repro.core.propagation.PropagationKernel`
is the one propagation path and :meth:`ReverseTopKEngine.query` runs the one
(columnar) scan; the property tests compare both against the straightforward
transcriptions of the paper kept here:

* :func:`bca_iteration` / :func:`run_node_bca` / :func:`initial_node_state` /
  :func:`materialize_lower_bounds` — Algorithm 1's batched BCA on ``{node:
  value}`` dicts, one source at a time (Eq. 6-9), verbatim from the seed;
* :func:`seed_states` / :func:`seed_index` — every node's state built by that
  loop, and an index assembled from them (:func:`index_from_states`);
* :func:`reference_scan` — Algorithm 4's while loop visiting all ``n`` nodes
  one at a time on PMPN's converged values: prune on the k-th lower bound,
  exact shortcut, the staircase bound, then the engine's own refinement of
  each remaining candidate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.core import IndexParams, IndexShard, QueryParams, ReverseTopKIndex
from repro.core.bounds import kth_upper_bound
from repro.core.index import NodeState
from repro.core.lbi import _compute_hub_matrix, default_hub_selection
from repro.core.pmpn import PointProximities, proximity_to_node
from repro.core.propagation import _HubExpansion
from repro.core.statestore import ColumnarStateStore
from repro.utils.sparsetools import top_k_descending
from repro.utils.timer import StageTimer

#: ``QueryStatistics`` counters :func:`reference_scan` reproduces.
SCAN_COUNTERS = (
    "n_results",
    "n_candidates",
    "n_hits",
    "n_exact_shortcut",
    "n_pruned_immediately",
    "n_refinement_iterations",
    "n_refined_nodes",
    "n_exact_fallbacks",
)


# ----------------------------------------------------------------------- #
# Algorithm 1: the seed's per-node dict loop
# ----------------------------------------------------------------------- #
def bca_iteration(
    state: NodeState,
    transition: sp.csc_matrix,
    hub_mask: np.ndarray,
    params: IndexParams,
    *,
    propagation_threshold: Optional[float] = None,
) -> bool:
    """Run one batched BCA iteration in place (Eq. 6, 8, 9).

    Returns ``True`` when at least one node propagated ink, ``False`` when no
    non-hub node holds ``eta`` or more residue.  ``propagation_threshold``
    overrides the configured ``eta`` for a single step (the smallest positive
    float mirrors the threshold-free :meth:`PropagationKernel.step`).
    """
    eta = params.propagation_threshold if propagation_threshold is None else propagation_threshold
    alpha = params.alpha
    active = [(node, amount) for node, amount in state.residual.items() if amount >= eta]
    if not active:
        return False

    residual = state.residual
    retained = state.retained
    hub_ink = state.hub_ink
    indptr, indices, data = transition.indptr, transition.indices, transition.data
    for node, amount in active:
        # Consume exactly the snapshot amount (Eq. 9 operates on r_{t-1});
        # ink pushed to this node by earlier members of the same batch stays
        # as residue for the next iteration.
        remaining = residual.get(node, 0.0) - amount
        if remaining > 1e-18:
            residual[node] = remaining
        else:
            residual.pop(node, None)
        retained[node] = retained.get(node, 0.0) + alpha * amount
        start, stop = indptr[node], indptr[node + 1]
        if start == stop:
            continue
        share = (1.0 - alpha) * amount
        for neighbor, weight in zip(indices[start:stop], data[start:stop]):
            portion = share * weight
            if hub_mask[neighbor]:
                hub_ink[int(neighbor)] = hub_ink.get(int(neighbor), 0.0) + portion
            else:
                residual[int(neighbor)] = residual.get(int(neighbor), 0.0) + portion
    state.iterations += 1
    return True


def initial_node_state(node: int, is_hub: bool) -> NodeState:
    """Fresh BCA state for ``node``: one unit of residue ink at the node itself.

    Hub nodes do not run BCA; their state references their own exact hub
    column (``s = e_node``), so the reconstructed vector is ``P_H e_node``.
    """
    if is_hub:
        return NodeState(hub_ink={int(node): 1.0}, is_hub=True)
    return NodeState(residual={int(node): 1.0})


def run_node_bca(
    state: NodeState,
    transition: sp.csc_matrix,
    hub_mask: np.ndarray,
    params: IndexParams,
    *,
    max_iterations: Optional[int] = None,
) -> NodeState:
    """Run batched BCA on ``state`` until the residue drops below ``delta``.

    Also stops when no node reaches the propagation threshold or the
    iteration cap is hit, whichever comes first.
    """
    if max_iterations is None:
        max_iterations = params.max_index_iterations
    while state.residual_mass > params.residue_threshold and state.iterations < max_iterations:
        if not bca_iteration(state, transition, hub_mask, params):
            break
    return state


def materialize_lower_bounds(
    state: NodeState, expansion: _HubExpansion, capacity: int
) -> None:
    """Recompute ``state.lower_bounds`` from the current ``w`` and ``s`` (Eq. 7)."""
    state.lower_bounds = top_k_descending(expansion.expand(state), capacity)


def seed_states(
    transition: sp.spmatrix,
    hub_mask: np.ndarray,
    params: IndexParams,
    expansion: _HubExpansion,
    sources: Sequence[int],
) -> List[NodeState]:
    """Converged, materialized seed-loop states of ``sources`` (non-hubs)."""
    matrix = sp.csc_matrix(transition)
    states = []
    for source in sources:
        state = initial_node_state(int(source), False)
        run_node_bca(state, matrix, hub_mask, params)
        materialize_lower_bounds(state, expansion, params.capacity)
        states.append(state)
    return states


def seed_index(graph, params: IndexParams, transition: sp.spmatrix) -> ReverseTopKIndex:
    """The index the seed's build loop produces: one dict state per node."""
    n = graph.n_nodes
    params = params.for_graph(n)
    matrix = sp.csc_matrix(transition)
    hubs = default_hub_selection(graph, params)
    hub_matrix, hub_deficit, hub_top_k = _compute_hub_matrix(matrix, hubs, params)
    hub_mask = hubs.mask(n)
    expansion = _HubExpansion(n, hubs, hub_matrix)
    states = []
    for node in range(n):
        if hub_mask[node]:
            state = initial_node_state(node, True)
            state.lower_bounds = hub_top_k[node]
        else:
            (state,) = seed_states(matrix, hub_mask, params, expansion, [node])
        states.append(state)
    return index_from_states(params, hubs, hub_matrix, hub_deficit, states)


def index_from_states(params, hubs, hub_matrix, hub_deficit, states) -> ReverseTopKIndex:
    """A one-shard in-RAM index over hand-made ``NodeState`` s."""
    store = ColumnarStateStore.from_states(states, params.capacity)
    shard = IndexShard.from_store(
        0,
        store.n_states,
        params.capacity,
        store,
        store.column_masses(hubs, np.asarray(hub_deficit, dtype=np.float64)),
    )
    return ReverseTopKIndex(params, hubs, hub_matrix, hub_deficit, [shard])


# ----------------------------------------------------------------------- #
# Algorithm 4: the per-node scan
# ----------------------------------------------------------------------- #
def reference_scan(engine, query: int, k: int, *, update_index: bool = True):
    """Algorithm 4's per-node while loop over all ``n`` nodes.

    Returns ``(nodes, counters)``: the ascending answer and a dict of the
    :data:`SCAN_COUNTERS`, plus ``pmpn_iterations``, the rounds PMPN took to
    converge — an upper bound of the engine's, which stops once every test
    is decided.  Every test is made on PMPN's result, as the paper's
    Algorithm 4 makes it: a node is pruned on its k-th lower bound, accepted
    when its bounds are exact or its staircase upper bound is reached, and
    otherwise handed to the engine's refinement loop with the same values as
    points (:class:`~repro.core.pmpn.PointProximities`), in ascending node
    order (so write-backs happen in the engine's order).
    """
    params = QueryParams(k=k, update_index=update_index)
    index = engine.index
    pmpn = proximity_to_node(
        engine.transition,
        query,
        alpha=index.params.alpha,
        tolerance=params.tolerance,
        plan=engine._pmpn_plan,
    )
    counters: Dict[str, int] = dict.fromkeys(SCAN_COUNTERS, 0)
    counters["pmpn_iterations"] = pmpn.iterations
    values = pmpn.proximities
    results = []
    for node in range(engine.n_nodes):
        state = index.state_arrays(node)
        value = float(values[node])
        if value < float(state.lower_bounds[k - 1]):
            counters["n_pruned_immediately"] += 1
            continue
        if state.is_exact:
            counters["n_exact_shortcut"] += 1
            results.append(node)
            continue
        counters["n_candidates"] += 1
        upper = kth_upper_bound(
            state.lower_bounds, index.state_residual_mass(state), k
        )
        if value >= upper:
            counters["n_hits"] += 1
            results.append(node)
            continue
        outcome = engine._refine_candidate(
            node, query, PointProximities(values), k, params, StageTimer()
        )
        counters["n_refinement_iterations"] += outcome.refinement_iterations
        counters["n_refined_nodes"] += outcome.refinement_iterations > 0
        counters["n_exact_fallbacks"] += outcome.used_exact_fallback
        if outcome.is_result:
            results.append(node)
    counters["n_results"] = len(results)
    return np.asarray(results, dtype=np.int64), counters
