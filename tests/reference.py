"""Reference oracles: the seed's per-node BCA loop and Algorithm 4's per-node scan.

Neither runs in production.  :class:`~repro.core.propagation.PropagationKernel`
is the one propagation path and :meth:`ReverseTopKEngine.query` runs the one
(columnar) scan; the property tests compare both against the straightforward
transcriptions of the paper kept here:

* :class:`SeedState` — the seed loop's own per-node state, ``{node: value}``
  dicts; :meth:`SeedState.of` / :meth:`SeedState.flat` convert from and to
  the engine's flat :class:`~repro.core.index.StateArrays`, and
  :func:`assert_same_state` compares two flat states entry by entry,
  whatever their storage order;
* :func:`bca_iteration` / :func:`run_node_bca` / :func:`initial_node_state` /
  :func:`materialize_lower_bounds` — Algorithm 1's batched BCA on those
  dicts, one source at a time (Eq. 6-9), verbatim from the seed;
* :func:`seed_states` / :func:`seed_index` — every node's state built by that
  loop, and an index assembled from them (:func:`index_from_states`);
* :func:`reference_scan` — Algorithm 4's while loop visiting all ``n`` nodes
  one at a time on PMPN's converged values: prune on the k-th lower bound,
  exact shortcut, the staircase bound, then the engine's own refinement of
  each remaining candidate;
* :func:`scatter_columns` — a refinement step's column push as a gather of
  storage positions plus ``np.add.at``, the float order the compiled
  ``_scatter_columns`` must keep;
* :func:`kth_other_upper_bound` — the k-th *other* bound in numpy
  (``delete`` / ``append`` and :func:`~repro.core.bounds.kth_upper_bound`),
  which the engine's list-based bound must equal float for float.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core import IndexParams, IndexShard, QueryParams, ReverseTopKIndex
from repro.core.bounds import kth_upper_bound
from repro.core.index import STATE_PLANES, StateArrays
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
# the seed loop's per-node state
# ----------------------------------------------------------------------- #
@dataclass
class SeedState:
    """One node's BCA state as the seed loop keeps it: ``{node: value}`` dicts.

    ``residual`` is the residue ink ``r``, ``retained`` the ink ``w`` kept at
    non-hubs, ``hub_ink`` the ink ``s`` parked at hubs; dict order is storage
    order, which :meth:`flat` keeps.
    """

    residual: Dict[int, float] = field(default_factory=dict)
    retained: Dict[int, float] = field(default_factory=dict)
    hub_ink: Dict[int, float] = field(default_factory=dict)
    lower_bounds: np.ndarray = field(default_factory=lambda: np.zeros(0))
    iterations: int = 0
    is_hub: bool = False

    @property
    def residual_mass(self) -> float:
        """Total undistributed ink ``||r||_1`` (a sequential sum)."""
        return float(sum(self.residual.values()))

    @property
    def is_exact(self) -> bool:
        """True when no residue remains, i.e. the lower bounds are exact values."""
        return self.is_hub or not self.residual

    @classmethod
    def of(cls, arrays: StateArrays) -> "SeedState":
        """The dict view of flat segments (fresh containers, storage order)."""
        planes = [
            dict(zip(keys.tolist(), values.tolist()))
            for keys, values in (arrays.residual, arrays.retained, arrays.hub_ink)
        ]
        lower_bounds = np.array(arrays.lower_bounds, dtype=np.float64)
        return cls(*planes, lower_bounds, arrays.iterations, arrays.is_hub)

    def flat(self) -> StateArrays:
        """The engine's flat segments of this state (entries keep dict order)."""
        planes = [
            (
                np.fromiter(entries.keys(), dtype=np.int64, count=len(entries)),
                np.fromiter(entries.values(), dtype=np.float64, count=len(entries)),
            )
            for entries in (self.residual, self.retained, self.hub_ink)
        ]
        return StateArrays(*planes, self.lower_bounds, self.iterations, self.is_hub)


def index_states(index) -> Iterator[Tuple[int, StateArrays]]:
    """``(node, flat state)`` for every node of ``index``, in node order."""
    for node in range(index.n_nodes):
        yield node, index.state_arrays(node)


def assert_same_state(a: StateArrays, b: StateArrays) -> None:
    """Two flat states hold the same entries, bit for bit, in any order."""
    for plane in STATE_PLANES:
        (keys_a, values_a), (keys_b, values_b) = getattr(a, plane), getattr(b, plane)
        assert dict(zip(keys_a.tolist(), values_a.tolist())) == dict(
            zip(keys_b.tolist(), values_b.tolist())
        ), plane
    np.testing.assert_array_equal(a.lower_bounds, b.lower_bounds)
    assert (a.iterations, a.is_hub) == (b.iterations, b.is_hub)


# ----------------------------------------------------------------------- #
# Algorithm 1: the seed's per-node dict loop
# ----------------------------------------------------------------------- #
def bca_iteration(
    state: SeedState,
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


def initial_node_state(node: int, is_hub: bool) -> SeedState:
    """Fresh BCA state for ``node``: one unit of residue ink at the node itself.

    Hub nodes do not run BCA; their state references their own exact hub
    column (``s = e_node``), so the reconstructed vector is ``P_H e_node``.
    """
    if is_hub:
        return SeedState(hub_ink={int(node): 1.0}, is_hub=True)
    return SeedState(residual={int(node): 1.0})


def run_node_bca(
    state: SeedState,
    transition: sp.csc_matrix,
    hub_mask: np.ndarray,
    params: IndexParams,
    *,
    max_iterations: Optional[int] = None,
) -> SeedState:
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
    state: SeedState, expansion: _HubExpansion, capacity: int
) -> None:
    """Recompute ``state.lower_bounds`` from the current ``w`` and ``s`` (Eq. 7)."""
    state.lower_bounds = top_k_descending(expansion.expand(state.flat()), capacity)


def seed_states(
    transition: sp.spmatrix,
    hub_mask: np.ndarray,
    params: IndexParams,
    expansion: _HubExpansion,
    sources: Sequence[int],
) -> List[SeedState]:
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
    """A one-shard in-RAM index over hand-made states, one per node.

    ``states`` are :class:`SeedState` s or flat :class:`StateArrays`; their
    segments are concatenated, in node order, into the store's flat arrays.
    """
    flat = [s.flat() if isinstance(s, SeedState) else s for s in states]
    arrays: Dict[str, np.ndarray] = {}
    for plane in STATE_PLANES:
        segments = [getattr(state, plane) for state in flat]
        counts = [len(keys) for keys, _ in segments]
        arrays[f"{plane}_indptr"] = np.concatenate([[0], np.cumsum(counts)]).astype(
            np.int64
        )
        arrays[f"{plane}_keys"] = np.concatenate(
            [np.zeros(0, dtype=np.int64)] + [keys for keys, _ in segments]
        ).astype(np.int64)
        arrays[f"{plane}_values"] = np.concatenate(
            [np.zeros(0)] + [values for _, values in segments]
        ).astype(np.float64)
    arrays["iterations"] = np.array([s.iterations for s in flat], dtype=np.int64)
    arrays["is_hub"] = np.array([s.is_hub for s in flat], dtype=bool)
    lower = np.zeros((params.capacity, len(flat)), dtype=np.float64)
    for column, state in enumerate(flat):
        count = min(params.capacity, state.lower_bounds.size)
        lower[:count, column] = state.lower_bounds[:count]
    store = ColumnarStateStore(arrays, lower)
    shard = IndexShard.from_store(
        0,
        store.n_states,
        params.capacity,
        store,
        store.column_masses(hubs, np.asarray(hub_deficit, dtype=np.float64)),
    )
    return ReverseTopKIndex(params, hubs, hub_matrix, hub_deficit, [shard])


# ----------------------------------------------------------------------- #
# a refinement round's two formulas
# ----------------------------------------------------------------------- #
def scatter_columns(
    matrix: sp.csc_matrix, columns: np.ndarray, scales: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``out += matrix[:, columns] @ scales`` entry by entry; returns the rows pushed.

    The storage positions of the listed columns, column after column in the
    listed order, then ``np.add.at`` of ``scale * weight`` in that order.
    """
    indptr = matrix.indptr
    entries = np.concatenate(
        [np.zeros(0, dtype=np.int64)]
        + [np.arange(indptr[j], indptr[j + 1], dtype=np.int64) for j in columns]
    )
    counts = np.array([indptr[j + 1] - indptr[j] for j in columns], dtype=np.int64)
    rows = matrix.indices[entries]
    np.add.at(out, rows, np.asarray(scales).repeat(counts) * matrix.data[entries])
    return rows


def kth_other_upper_bound(lower, top, query, residual_mass, known_gap, k) -> float:
    """The bound on the k-th largest proximity other than ``query``'s, in numpy.

    ``query``'s step leaves the top-``k`` staircase and the original array's
    last entry fills the vacated ``K``-th slot; ``known_gap`` leaves the mass.
    """
    lower = np.asarray(lower, dtype=np.float64)
    rank = np.flatnonzero(np.asarray(top)[:k] == query)
    if rank.size:
        lower = np.append(np.delete(lower, rank[0]), lower[-1])
    others_mass = max(residual_mass - max(known_gap, 0.0), 0.0)
    return kth_upper_bound(lower, others_mass, k)


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
