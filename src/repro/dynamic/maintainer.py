"""Delta-maintenance of the reverse top-k index under graph updates.

A full index rebuild runs batched BCA from *every* node — the dominant cost
the paper's offline phase pays once (Table 2).  Under churn that cost would
recur per update batch.  :class:`IndexMaintainer` avoids it with
**conservative invalidation**, built on one observation about batched BCA
(Algorithm 1): the trajectory of node ``u``'s refinement reads only the
transition columns of nodes that *propagated* ink, and every propagating
node retains an ``alpha`` share — so the set of columns ever read is covered
by the support of ``u``'s retained/residual ink.  If none of those columns
changed, a from-scratch run on the new graph replays the identical
trajectory and lands in the bit-identical state.

``apply()`` therefore:

1. recomputes only the transition columns of the touched sources
   (:func:`~repro.graph.transition.rebuild_transition_columns`, bit-identical
   to a full rebuild) and diffs them against the old matrix;
2. keeps the index's hub set: a changed hub *set* would poison every state
   (the hub mask steers every trajectory), and the tie-heavy degree
   heuristic flips on single-edge changes;
3. re-solves the exact hub proximity columns ``P_H`` of the hubs that can
   *reach* a changed column, and of no other: one backward sweep from the
   changed columns ``C`` over the *old* transition yields ``R``, the nodes
   with a path into ``C``; hubs in ``R`` get a fresh power-method solve
   (spliced into the CSC matrix and ``hub_deficit``), and of those it notes
   which columns actually moved.  Hubs outside ``R`` keep their column,
   deficit and exact top-K untouched, and when ``R`` holds no hub the index
   keeps its very ``hub_matrix`` / ``hub_deficit`` objects (lemma below);
4. **invalidates** every non-hub state whose residue/retained support
   touches a changed column — found by vectorised scans over the stores'
   flat key arrays, never by walking per-node objects — and re-refines
   those from scratch as one
   :class:`~repro.core.propagation.PropagationKernel` run (a blocked
   multi-source rebuild); if the stale
   fraction reaches ``rebuild_ratio``, a full rebuild is cheaper and runs
   instead;
5. **re-materializes** the lower bounds of kept states whose hub ink refers
   to a changed hub column (the stored ink is still exact; only the
   ``P_H`` expansion moved);
6. writes the result into the index *in place*, as flat segments: the
   rewritten rows through ``apply_updates`` (``O(rewritten)`` overlay
   writes routed to their shards, every other row untouched), a full
   rebuild's fresh shards through
   :meth:`~repro.core.sharding.ReverseTopKIndex.adopt` — one version bump
   either way, so the serving layer's result cache drops exactly one
   generation — and rebinds the engine's transition caches.

The invariant all of this preserves: after ``apply()``, the maintained index
is **bit-identical** to ``build_index`` run from scratch on the new graph
*under the maintained hub set* (states, hub matrix, columnar views, and
therefore every query answer and statistics counter), as long as no
query-time refinement was persisted in between.  With persisted
refinements the kept states remain *valid* BCA states on the new graph, so
answers still match a fresh engine (same hub set) exactly.
Across *different* hub sets answers agree except on floating-point knife-edge
ties, where the kth value and the query proximity coincide to the last ulp
and the decision legitimately depends on the rounding path.

**Lemma (the hub screen of step 3 is exact).**  Let ``C`` be the changed
transition columns and ``R`` the nodes with a path into ``C`` in the *old*
graph (``C ⊆ R``).  If a hub ``h ∉ R``, then ``h`` has no path into ``C`` in
the *new* graph either: the first changed source on such a path would be
reached through unchanged columns only, hence already in the old graph.  The
``t``-th power-method iterate of ``h`` is supported on the nodes ``h`` reaches
in at most ``t`` steps, so every iterate is exactly ``0`` on ``C``, before
and after the batch.  The two transitions differ only in the columns ``C``,
and every product term a row sum reads from such a column is ``A[i, c] · 0``,
an exact ``+0.0`` — adding or dropping ``+0.0`` terms leaves each sequential
row sum (all terms non-negative) bit for bit what it was.  The solve, its
iteration count, the ``omega`` rounding, the deficit and the exact top-K
therefore replay bit for bit, and skipping the solve changes nothing but its
cost.  Maintenance work follows what the batch can affect — ``|R ∩ H|``
solves, not ``|H|`` — which on sources nobody links to is none at all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Set, Tuple

import numpy as np

from .._validation import check_positive_float
from ..core.hubs import HubSet
from ..core.index import StateArrays
from ..core.lbi import _compute_hub_matrix
from ..core.propagation import PropagationKernel
from ..core.query import ReverseTopKEngine
from ..core.sharding import build_index
from ..core.statestore import ColumnarStateStore
from ..graph.digraph import DiGraph
from ..graph.transition import column_slice, rebuild_transition_columns
from ..utils.sparsetools import splice_csc_columns, top_k_descending
from ..utils.timer import Timer

#: Default stale-state fraction past which a full rebuild wins.
DEFAULT_REBUILD_RATIO = 0.25


@dataclass(frozen=True)
class MaintenanceReport:
    """What one :meth:`IndexMaintainer.apply` call did, and what it cost.

    Attributes
    ----------
    n_touched_sources:
        Sources the caller reported as mutated since the last apply.
    n_changed_columns:
        Transition columns that actually differ after the column-level diff.
    n_invalidated:
        Non-hub states reset and re-refined from scratch.
    n_rematerialized:
        Kept states whose lower bounds were re-expanded against the new
        hub columns.
    n_hub_columns:
        Hub proximity columns actually re-solved: the hubs with a path into
        a changed column (``0`` when none has one; every hub on a full
        rebuild).
    staleness:
        Invalidated fraction of the non-hub population (what the rebuild
        threshold is compared against).
    full_rebuild:
        Whether the escape hatch to a from-scratch :func:`build_index` (under
        the same hub set) ran because the staleness reached the threshold.
    changed:
        ``False`` for a pure no-op (every recomputed column bit-identical):
        the index, its version, and every cached answer stay valid.
    index_version:
        The index version after this application.
    seconds:
        Wall-clock cost of the application.
    """

    n_touched_sources: int
    n_changed_columns: int
    n_invalidated: int
    n_rematerialized: int
    n_hub_columns: int
    staleness: float
    full_rebuild: bool
    changed: bool
    index_version: int
    seconds: float

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        return {
            "n_touched_sources": self.n_touched_sources,
            "n_changed_columns": self.n_changed_columns,
            "n_invalidated": self.n_invalidated,
            "n_rematerialized": self.n_rematerialized,
            "n_hub_columns": self.n_hub_columns,
            "staleness": self.staleness,
            "full_rebuild": self.full_rebuild,
            "changed": self.changed,
            "index_version": self.index_version,
            "seconds": self.seconds,
        }


class IndexMaintainer:
    """Keeps a :class:`ReverseTopKEngine` consistent with a mutating graph.

    Parameters
    ----------
    engine:
        The engine to maintain.  Its index is mutated in place and its
        transition caches are rebound on every effective application.
    rebuild_ratio:
        Stale-state fraction (of the non-hub population) at which the
        incremental path gives up and rebuilds from scratch.  ``1.0``
        disables the escape hatch; small values make the maintainer eager to
        rebuild.
    weighted:
        Whether the engine's transition is the weighted variant (§5.4); the
        column recomputation must replay the same arithmetic.

    The index's hub set stays fixed for the maintainer's lifetime — even
    full rebuilds reuse it.  Hubs are a performance choice, not a
    correctness one — any hub set yields exact answers up to floating-point
    knife-edge ties — so pinning trades slowly drifting hub quality for
    stable incremental cost (refresh by rebuilding the service when drift
    accumulates).
    """

    def __init__(
        self,
        engine: ReverseTopKEngine,
        *,
        rebuild_ratio: float = DEFAULT_REBUILD_RATIO,
        weighted: bool = False,
    ) -> None:
        self.engine = engine
        self.rebuild_ratio = check_positive_float(rebuild_ratio, "rebuild_ratio")
        if self.rebuild_ratio > 1.0:
            raise ValueError(
                f"rebuild_ratio must be in (0, 1], got {self.rebuild_ratio}"
            )
        self.weighted = bool(weighted)

    # ------------------------------------------------------------------ #
    # application
    # ------------------------------------------------------------------ #
    def apply(
        self, graph: DiGraph, touched_sources: Iterable[int]
    ) -> MaintenanceReport:
        """Bring the engine up to date with ``graph``.

        ``graph`` is the post-mutation graph (same node count as the index);
        ``touched_sources`` lists every node whose out-edges may have changed
        since the previous application — a conservative superset is fine,
        the column diff filters no-ops.  Typically both come straight from
        :func:`~repro.dynamic.graph.apply_batch`.
        """
        index = self.engine.index
        if graph.n_nodes != index.n_nodes:
            raise ValueError(
                f"graph has {graph.n_nodes} nodes but the index covers "
                f"{index.n_nodes} (dynamic updates are edge-level)"
            )
        with Timer() as timer:
            touched = np.unique(np.asarray(list(touched_sources), dtype=np.int64))
            new_transition, changed = rebuild_transition_columns(
                self.engine.transition, graph, touched, weighted=self.weighted
            )
            effective = changed.size > 0
            if effective:
                outcome = self._incremental(graph, new_transition, changed)
            else:
                # Bit-identical transition: a fresh build (under this hub
                # set) would reproduce the current index exactly.  Nothing
                # to do — and critically no version bump, so cached answers
                # stay live.
                outcome = (0, 0, 0, 0.0, False)
        invalidated, rematerialized, hub_columns, staleness, rebuilt = outcome
        return MaintenanceReport(
            n_touched_sources=int(touched.size),
            n_changed_columns=int(changed.size),
            n_invalidated=invalidated,
            n_rematerialized=rematerialized,
            n_hub_columns=hub_columns,
            staleness=staleness,
            full_rebuild=rebuilt,
            changed=effective,
            index_version=index.version,
            seconds=timer.elapsed,
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _full_rebuild(self, graph, transition):
        """Escape hatch: rebuild everything, splice into the live index.

        The fresh index is built on the live index's own partitioning and
        hub set and adopted in place; the version bumps exactly once.
        """
        index = self.engine.index
        hubs = index.hubs
        index.adopt(
            build_index(
                graph,
                index.params,
                hubs=hubs,
                transition=transition,
                n_shards=index.n_shards,
            )
        )
        self.engine.rebind(transition)
        n_non_hub = index.n_nodes - len(hubs)
        return n_non_hub, 0, len(hubs), 1.0, True

    def _incremental(self, graph, transition, changed):
        """The delta path: targeted invalidation plus hub re-expansion."""
        index = self.engine.index
        hubs = index.hubs
        params = index.params
        n = index.n_nodes
        changed_mask = np.zeros(n, dtype=bool)
        changed_mask[changed] = True

        segments = _array_segments(index)
        invalid = _invalid_from_arrays(segments, changed_mask).tolist()
        n_non_hub = max(1, n - len(hubs))
        staleness = len(invalid) / n_non_hub
        if staleness >= self.rebuild_ratio:
            # The rebuild keeps the index's hub set, so the maintained index
            # is always bit-identical to a from-scratch build under it —
            # including every answer on floating-point knife-edge ties,
            # which genuinely depend on the hub set's rounding path.
            count, _, hub_columns, _, rebuilt = self._full_rebuild(graph, transition)
            return count, 0, hub_columns, staleness, rebuilt

        # Only hubs with a path into a changed column can have moved (module
        # docstring, lemma); the sweep runs over the transition the engine
        # still holds — the *old* one.
        hub_nodes = np.asarray(hubs.nodes, dtype=np.int64)
        reaching = _nodes_reaching(self.engine.transition, changed, hub_nodes)
        stale = np.flatnonzero(reaching[hub_nodes])
        hub_matrix, hub_deficit = index.hub_matrix, index.hub_deficit
        hub_top_k: Dict[int, np.ndarray] = {}
        changed_hubs: Set[int] = set()
        if stale.size:
            columns, deficits, hub_top_k = _compute_hub_matrix(
                transition, HubSet(tuple(hub_nodes[stale].tolist())), params
            )
            hub_matrix = splice_csc_columns(
                index.hub_matrix,
                {
                    position: column_slice(columns, slot)
                    for slot, position in enumerate(stale.tolist())
                },
            )
            hub_deficit = index.hub_deficit.copy()
            hub_deficit[stale] = deficits
            changed_hubs = _changed_hub_columns(
                index, hubs, hub_matrix, hub_deficit, stale
            )
        kernel = PropagationKernel(
            transition, hubs.mask(n), params, hubs=hubs, hub_matrix=hub_matrix
        )
        return self._apply_targeted(
            index, kernel, segments, invalid, changed_hubs,
            hub_matrix, hub_deficit, hub_top_k, transition, staleness,
        )

    def _apply_targeted(
        self, index, kernel, segments, invalid, changed_hubs,
        hub_matrix, hub_deficit, hub_top_k, transition, staleness,
    ):
        """Rewrite only the affected nodes, as flat segments.

        Invalidated nodes are re-refined as one kernel run — per-source
        bitwise determinism of the kernel keeps the result identical to a
        from-scratch build — the rows of re-solved hubs (``hub_top_k``) are
        refreshed against their recomputed exact top-K, and kept states whose
        hub ink references a changed hub column get their lower bounds
        re-expanded.  Every *other* node's stored state, mass and columns are
        untouched, which is exactly what a wholesale recomputation would
        reproduce bit for bit (unchanged residual support, unchanged hub
        deficits on the hubs it references).
        """
        empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64))
        updates: Dict[int, StateArrays] = {
            hub: StateArrays(
                empty,
                empty,
                (np.array([hub], dtype=np.int64), np.ones(1)),
                top_k.copy(),
                is_hub=True,
            )
            for hub, top_k in hub_top_k.items()
        }
        updates.update(kernel.run(invalid).state_arrays())

        rematerialized = 0
        if changed_hubs:
            changed_hub_mask = np.zeros(index.n_nodes, dtype=bool)
            changed_hub_mask[np.asarray(sorted(changed_hubs), dtype=np.int64)] = True
            hit = _plane_hits(segments, "hub_ink", changed_hub_mask)
            for node in np.flatnonzero(hit).tolist():
                if node in updates:
                    continue
                # The stored ink is still exact; only the hub expansion the
                # lower bounds were materialized through has moved.
                arrays = index.state_arrays(node)
                updates[node] = replace(
                    arrays,
                    lower_bounds=top_k_descending(
                        kernel.expansion.expand(arrays), index.capacity
                    ),
                )
                rematerialized += 1

        # With no hub re-solved these are the index's own objects, handed
        # straight back.
        index.apply_updates(
            updates, hub_matrix=hub_matrix, hub_deficit=hub_deficit
        )
        self.engine.rebind(transition)
        return len(invalid), rematerialized, len(hub_top_k), staleness, False


def _nodes_reaching(
    transition, targets: np.ndarray, watched: np.ndarray
) -> np.ndarray:
    """Bool mask of the nodes with a path into ``targets`` (themselves included).

    A backward sweep in rounds: a node joins when one of its out-edges lands
    in the previous round's frontier, ``(Aᵀ·f) > 0`` — the CSC arrays of
    ``A`` read as the CSR of ``Aᵀ``, so nothing is converted.  The sweep
    stops when the set stops growing or already holds every ``watched`` node
    (the hubs: all the maintainer asks about), so the mask is complete on
    ``watched`` and a lower bound elsewhere.
    """
    reached = np.zeros(transition.shape[0], dtype=bool)
    reached[targets] = True
    frontier = reached
    by_source = transition.T
    while frontier.any() and not reached[watched].all():
        frontier = (by_source @ frontier.astype(np.float64) > 0) & ~reached
        reached |= frontier
    return reached


def _array_segments(index) -> List[Tuple[int, ColumnarStateStore, np.ndarray]]:
    """``(start, store, is_hub rows)`` per shard of ``index``.

    Memmap shards open their stores lazily here — a sequential read over
    the flat key arrays, not a per-node materialisation.  The hub rows are
    the store's ``is_hub`` column with its overlay's rows swapped in.
    """
    segments = []
    for shard in index.shards:
        store = shard.store
        is_hub = np.array(store.arrays["is_hub"], dtype=bool)
        for local, state in store.overlay.items():
            is_hub[local] = state.is_hub
        segments.append((shard.start, store, is_hub))
    return segments


def _plane_hits(segments, plane: str, key_mask: np.ndarray) -> np.ndarray:
    """Non-hub nodes (global ids, as a bool mask) whose ``plane`` support hits the mask.

    Vectorised per segment: flag every stored key against ``key_mask``, then
    reduce per row with ``bitwise_or.reduceat`` over the non-empty rows (the
    entries between consecutive non-empty row starts belong exactly to the
    first — empty rows contribute none).  Overlaid rows supersede their
    array rows.
    """
    hit = np.zeros(key_mask.size, dtype=bool)
    for start, store, is_hub in segments:
        m = store.n_states
        keys = np.asarray(store.arrays[f"{plane}_keys"])
        indptr = np.asarray(store.arrays[f"{plane}_indptr"])
        row_hit = np.zeros(m, dtype=bool)
        if keys.size:
            flags = key_mask[keys]
            nonempty = np.diff(indptr) > 0
            if np.any(nonempty):
                row_hit[nonempty] = np.bitwise_or.reduceat(
                    flags, indptr[:-1][nonempty]
                )
        for local, state in store.overlay.items():
            row_hit[local] = key_mask[getattr(state, plane)[0]].any()
        hit[start : start + m] = row_hit & ~is_hub
    return hit


def _invalid_from_arrays(segments, changed_mask: np.ndarray) -> np.ndarray:
    """Non-hub nodes whose trajectory may have read a changed column.

    Every node that ever propagated ink appears in ``retained`` (it keeps an
    ``alpha`` share), so the retained support covers all columns read.  The
    residual support and the node itself are included as an extra margin —
    they cost nothing and keep the test obviously safe for hand-constructed
    states.
    """
    hit = (
        _plane_hits(segments, "retained", changed_mask)
        | _plane_hits(segments, "residual", changed_mask)
    )
    for start, store, is_hub in segments:
        stop = start + store.n_states
        hit[start:stop] |= changed_mask[start:stop] & ~is_hub
    return np.flatnonzero(hit)


def _changed_hub_columns(
    index, hubs: HubSet, hub_matrix, hub_deficit: np.ndarray, positions: np.ndarray
) -> Set[int]:
    """Hub ids, among the re-solved ``positions``, whose rounded proximity
    column (or deficit) actually moved.

    Kept states whose hub ink only references unchanged hubs keep their
    lower bounds verbatim — re-expanding them against bit-identical columns
    would reproduce the same values at full cost.
    """
    old_matrix = index.hub_matrix
    changed: Set[int] = set()
    for position in positions.tolist():
        hub = hubs.nodes[position]
        if float(hub_deficit[position]) != float(index.hub_deficit[position]):
            changed.add(int(hub))
            continue
        old_start, old_stop = (
            old_matrix.indptr[position],
            old_matrix.indptr[position + 1],
        )
        start, stop = hub_matrix.indptr[position], hub_matrix.indptr[position + 1]
        if (
            stop - start != old_stop - old_start
            or not np.array_equal(
                hub_matrix.indices[start:stop],
                old_matrix.indices[old_start:old_stop],
            )
            or not np.array_equal(
                hub_matrix.data[start:stop], old_matrix.data[old_start:old_stop]
            )
        ):
            changed.add(int(hub))
    return changed
