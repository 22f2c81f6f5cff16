"""Columnar struct-of-arrays node-state storage for million-node builds.

The monolithic :class:`~repro.core.index.ReverseTopKIndex` and the sharded
layout both describe per-node BCA state as :class:`NodeState` objects — three
``{node: value}`` dicts plus a small lower-bound vector.  At a few thousand
nodes that is convenient; at web-Google scale (~875k nodes) the Python object
overhead alone (dict headers, boxed floats, per-object GC tracking) costs
gigabytes and minutes of allocator time before any ink moves.

This module keeps the *flattened* representation those objects already
round-trip through (:data:`STATE_ARRAY_NAMES`, the exact
``_states_to_arrays`` / per-shard ``.npy`` layout) as the **primary** storage:

``ColumnarStateStore``
    Struct-of-arrays state for a contiguous node range.  ``NodeState`` is
    demoted to a lazy per-node *view* materialised on demand (and pinned in a
    write overlay, preserving the mutate-in-place + ``sync_state`` contract),
    so the query engine's refinement path is unchanged while bulk paths touch
    only arrays.  Every materialisation increments a module-level counter —
    the large-graph benchmark asserts the build hot path performs **zero**.

``StateArraysSink``
    The kernel-side collector: converged block columns spill straight into
    flat ``(counts, keys, values)`` segments (plus bounds / iteration rows)
    without constructing a single ``NodeState``.

``assemble_store``
    Merges collected segments with vectorised hub and untargeted rows into a
    finished store, ordered by node id.

Bit-identity: the flat segments are produced by the same
``np.nonzero``-gather the dict spill path uses, so keys appear in the same
(ascending) order and values are the same floats — a store round-trips
through ``to_arrays`` to byte-identical files, and through ``state()`` to
dict-identical :class:`NodeState` views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import InvalidParameterError
from .hubs import HubSet
from .index import (
    STATE_PLANES as _PLANES,
    NodeState,
    StateArrays,
    _states_to_arrays,
    effective_state_residual_mass,
)

#: The canonical flattened state layout (one array per name).  This is
#: exactly the layout :func:`repro.core.index._states_to_arrays` produces,
#: the monolithic ``.npz`` archive stores, and the sharded on-disk layout
#: persists as per-shard ``.npy`` files.
STATE_ARRAY_NAMES = (
    "residual_indptr",
    "residual_keys",
    "residual_values",
    "retained_indptr",
    "retained_keys",
    "retained_values",
    "hub_ink_indptr",
    "hub_ink_keys",
    "hub_ink_values",
    "lower_bounds",
    "iterations",
    "is_hub",
)

#: Module-level count of NodeState materialisations from columnar storage.
#: The large-graph bench (and the statestore tests) reset this before a
#: build and assert it stayed at zero — the acceptance check that the build
#: hot path allocates no per-node Python state objects.
_MATERIALIZATIONS = 0


def materialization_count() -> int:
    """Number of ``NodeState`` views materialised from columnar storage."""
    return _MATERIALIZATIONS


def reset_materialization_count() -> None:
    """Reset the materialisation counter (benchmarks / tests)."""
    global _MATERIALIZATIONS
    _MATERIALIZATIONS = 0


def count_materialization(n: int = 1) -> None:
    """Record ``n`` NodeState materialisations (internal hook)."""
    global _MATERIALIZATIONS
    _MATERIALIZATIONS += n


def stored_entries(arrays, overlay: Dict[int, NodeState]) -> int:
    """Sparse entries of a flattened layout with ``overlay`` rows swapped in.

    An O(1) peek at the index-pointer tails (memmaps stay lazy) plus one
    correction per overlaid node, whose live state supersedes its stored row.
    """
    indptrs = [arrays[f"{plane}_indptr"] for plane in _PLANES]
    total = sum(int(indptr[-1]) for indptr in indptrs)
    for node, state in overlay.items():
        stored = sum(int(indptr[node + 1] - indptr[node]) for indptr in indptrs)
        total += state.stored_entries() - stored
    return total


class ColumnarStateStore:
    """Struct-of-arrays storage for the per-node states of a node range.

    The store owns one array per :data:`STATE_ARRAY_NAMES` entry covering
    ``n`` nodes (local ids ``0 .. n-1``).  Reads materialise lazy
    :class:`NodeState` views; writes land in an overlay dict consulted before
    the arrays, so the arrays themselves stay immutable until
    :meth:`to_arrays` merges the overlay back.
    """

    def __init__(self, arrays: Dict[str, np.ndarray], capacity: int) -> None:
        missing = [name for name in STATE_ARRAY_NAMES if name not in arrays]
        if missing:
            raise InvalidParameterError(
                f"columnar state store is missing arrays: {missing}"
            )
        self.capacity = int(capacity)
        self.arrays: Dict[str, np.ndarray] = {
            name: arrays[name] for name in STATE_ARRAY_NAMES
        }
        n = int(self.arrays["is_hub"].shape[0])
        for plane in _PLANES:
            if self.arrays[f"{plane}_indptr"].shape[0] != n + 1:
                raise InvalidParameterError(
                    f"{plane}_indptr must have {n + 1} entries"
                )
        if self.arrays["lower_bounds"].shape != (n, self.capacity):
            raise InvalidParameterError(
                f"lower_bounds must have shape {(n, self.capacity)}, got "
                f"{self.arrays['lower_bounds'].shape}"
            )
        self._n = n
        self._overlay: Dict[int, NodeState] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_states(
        cls, states: Sequence[NodeState], capacity: int
    ) -> "ColumnarStateStore":
        """Flatten a list of states into a store (object → columnar bridge)."""
        return cls(_states_to_arrays(list(states), int(capacity)), capacity)

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._n

    @property
    def n_states(self) -> int:
        """Number of nodes covered by this store."""
        return self._n

    @property
    def overlay(self) -> Dict[int, NodeState]:
        """Live write overlay: ``{local id: pinned NodeState}``."""
        return self._overlay

    def state(self, node: int) -> NodeState:
        """The mutable state view of ``node``, pinned in the overlay.

        The monolithic index contract is that repeated ``state()`` calls
        return one identity (callers mutate in place, then ``sync_state``);
        pinning the first materialisation preserves that.
        """
        pinned = self._overlay.get(node)
        if pinned is None:
            pinned = self._materialize(node)
            self._overlay[node] = pinned
        return pinned

    def peek_state(self, node: int) -> NodeState:
        """Overlay-aware read without pinning (bulk by-value consumers)."""
        pinned = self._overlay.get(node)
        return pinned if pinned is not None else self._materialize(node)

    def set_state(self, node: int, state: NodeState) -> None:
        """Replace the state of ``node`` (overlay write)."""
        self._overlay[node] = state

    def iter_states(self) -> Iterator[NodeState]:
        """All states in node order (overlay-aware, non-pinning)."""
        for node in range(self._n):
            yield self.peek_state(node)

    def state_arrays(self, node: int) -> StateArrays:
        """Overlay-aware flat-segment read: no ``NodeState``, nothing pinned."""
        pinned = self._overlay.get(node)
        if pinned is not None:
            return StateArrays.from_state(pinned)
        return StateArrays.from_flat(self.arrays, node)

    def _materialize(self, node: int) -> NodeState:
        count_materialization()
        return StateArrays.from_flat(self.arrays, node).to_state()

    # ------------------------------------------------------------------ #
    # bulk columnar reads (the build / persist hot paths)
    # ------------------------------------------------------------------ #
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The flattened state arrays, with any overlay writes merged in.

        With an empty overlay (the build hot path) this is a dict copy —
        the arrays themselves pass through untouched, so persisting a fresh
        store never re-serialises per-node objects.
        """
        if not self._overlay:
            return dict(self.arrays)
        merged: Dict[str, np.ndarray] = {}
        for plane in _PLANES:
            merged.update(self._merge_plane(plane))
        lower = np.array(self.arrays["lower_bounds"], dtype=np.float64, copy=True)
        iterations = np.array(self.arrays["iterations"], dtype=np.int64, copy=True)
        is_hub = np.array(self.arrays["is_hub"], dtype=bool, copy=True)
        for node, state in self._overlay.items():
            count = min(self.capacity, state.lower_bounds.size)
            lower[node, :count] = state.lower_bounds[:count]
            lower[node, count:] = 0.0
            iterations[node] = int(state.iterations)
            is_hub[node] = bool(state.is_hub)
        merged["lower_bounds"] = lower
        merged["iterations"] = iterations
        merged["is_hub"] = is_hub
        return merged

    def _merge_plane(self, plane: str) -> Dict[str, np.ndarray]:
        """Splice overlaid rows into one sparse plane's flat arrays.

        Untouched rows move in one segment gather; only the overlaid rows —
        the handful a maintenance batch or a write-back produced — are
        visited in Python.
        """
        indptr = np.asarray(self.arrays[f"{plane}_indptr"], dtype=np.int64)
        counts = np.diff(indptr)
        kept = np.ones(self._n, dtype=bool)
        for node, state in self._overlay.items():
            counts[node] = len(getattr(state, plane))
            kept[node] = False
        new_indptr = np.concatenate([[0], np.cumsum(counts)])
        new_keys = np.empty(int(new_indptr[-1]), dtype=np.int64)
        new_values = np.empty(int(new_indptr[-1]), dtype=np.float64)
        rows = np.flatnonzero(kept)
        _segment_gather(
            new_indptr,
            rows,
            indptr[:-1][rows],
            counts[rows],
            self.arrays[f"{plane}_keys"],
            self.arrays[f"{plane}_values"],
            new_keys,
            new_values,
        )
        for node, state in self._overlay.items():
            dst_lo, dst_hi = int(new_indptr[node]), int(new_indptr[node + 1])
            entries = getattr(state, plane)
            new_keys[dst_lo:dst_hi] = np.fromiter(
                entries.keys(), dtype=np.int64, count=len(entries)
            )
            new_values[dst_lo:dst_hi] = np.fromiter(
                entries.values(), dtype=np.float64, count=len(entries)
            )
        return {
            f"{plane}_indptr": new_indptr,
            f"{plane}_keys": new_keys,
            f"{plane}_values": new_values,
        }

    def lower_matrix(self) -> np.ndarray:
        """Fresh dense ``(K, n)`` lower-bound matrix (overlay-aware copy)."""
        lower = np.ascontiguousarray(self.arrays["lower_bounds"].T, dtype=np.float64)
        for node, state in self._overlay.items():
            count = min(self.capacity, state.lower_bounds.size)
            lower[:count, node] = state.lower_bounds[:count]
            lower[count:, node] = 0.0
        return lower

    def column_masses(self, hubs: HubSet, hub_deficit: np.ndarray) -> np.ndarray:
        """Per-node effective residual masses, bitwise-faithful.

        Reproduces :func:`~repro.core.index.effective_state_residual_mass`
        exactly: a Python sequential ``sum`` over the residual values in
        storage order, then the hub-deficit corrections in hub-ink storage
        order.  (NumPy's pairwise reductions are *not* bitwise equal to a
        sequential sum, so this deliberately stays a per-row Python loop —
        small slices off large arrays, no large intermediate.)
        """
        hub_deficit = np.asarray(hub_deficit, dtype=np.float64)
        out = np.empty(self._n, dtype=np.float64)
        r_indptr = self.arrays["residual_indptr"]
        r_values = self.arrays["residual_values"]
        h_indptr = self.arrays["hub_ink_indptr"]
        h_keys = self.arrays["hub_ink_keys"]
        h_values = self.arrays["hub_ink_values"]
        correct = bool(hub_deficit.size)
        overlay = self._overlay
        for node in range(self._n):
            state = overlay.get(node)
            if state is not None:
                out[node] = effective_state_residual_mass(state, hubs, hub_deficit)
                continue
            lo, hi = int(r_indptr[node]), int(r_indptr[node + 1])
            mass = float(sum(r_values[lo:hi].tolist()))
            if correct:
                hlo, hhi = int(h_indptr[node]), int(h_indptr[node + 1])
                if hhi > hlo:
                    for key, ink in zip(
                        h_keys[hlo:hhi].tolist(), h_values[hlo:hhi].tolist()
                    ):
                        mass += ink * float(hub_deficit[hubs.position(int(key))])
            out[node] = mass
        return out

    def is_exact_mask(self) -> np.ndarray:
        """Boolean exactness mask: hub, or no residual entries (overlay-aware)."""
        counts = np.diff(self.arrays["residual_indptr"])
        mask = np.asarray(self.arrays["is_hub"], dtype=bool) | (counts == 0)
        for node, state in self._overlay.items():
            mask[node] = state.is_exact
        return mask

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def stored_entries(self) -> int:
        """Total sparse entries across planes (overlay-aware, O(overlay))."""
        return stored_entries(self.arrays, self._overlay)

    def nbytes(self) -> int:
        """Bytes held by the backing arrays (overlay states excluded)."""
        return int(sum(np.asarray(a).nbytes for a in self.arrays.values()))

    def __getstate__(self) -> dict:
        """Pickle as flat arrays only: the overlay is merged, never shipped.

        A rollover clone (or a process-pool transfer) of a store with pinned
        or maintained states would otherwise carry every dict-backed
        ``NodeState`` along — and the next clone would carry those plus its
        own, so a served index grew by tens of thousands of Python objects
        per update batch.  The copy gets :meth:`to_arrays` and an empty
        overlay; this store is left exactly as it was.
        """
        state = self.__dict__.copy()
        state["arrays"] = self.to_arrays()
        state["_overlay"] = {}
        return state

    def __repr__(self) -> str:
        return (
            f"ColumnarStateStore(n={self._n}, K={self.capacity}, "
            f"entries={self.stored_entries()}, overlay={len(self._overlay)})"
        )


# ----------------------------------------------------------------------- #
# kernel-side collection
# ----------------------------------------------------------------------- #
@dataclass
class CollectedStates:
    """Flat converged-state segments collected by a :class:`StateArraysSink`.

    ``sources`` are global node ids; each plane is ``(counts, keys, values)``
    aligned with ``sources``; ``bounds`` holds one top-K row per source.
    Plain arrays only — cheap to pickle across the process-pool boundary.
    """

    sources: np.ndarray
    iterations: np.ndarray
    bounds: np.ndarray
    planes: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray]]

    @property
    def n_sources(self) -> int:
        return int(self.sources.size)


def _empty_collected(capacity: int) -> CollectedStates:
    return CollectedStates(
        sources=np.zeros(0, dtype=np.int64),
        iterations=np.zeros(0, dtype=np.int64),
        bounds=np.zeros((0, int(capacity)), dtype=np.float64),
        planes={
            plane: (
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.float64),
            )
            for plane in _PLANES
        },
    )


class StateArraysSink:
    """Collects converged kernel columns as flat arrays — no NodeState objects.

    The propagation kernel's spill path hands each finished batch over as
    per-plane ``(counts, keys, values)`` triples plus bounds and iteration
    rows; :meth:`collected` concatenates the batches once at the end.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._sources: List[np.ndarray] = []
        self._iterations: List[np.ndarray] = []
        self._bounds: List[np.ndarray] = []
        self._plane_parts: Dict[str, List[Tuple[np.ndarray, np.ndarray, np.ndarray]]] = {
            plane: [] for plane in _PLANES
        }
        self.n_collected = 0

    def absorb(
        self,
        *,
        sources: np.ndarray,
        iterations: np.ndarray,
        bounds: Optional[np.ndarray],
        residual: Tuple[np.ndarray, np.ndarray, np.ndarray],
        retained: Tuple[np.ndarray, np.ndarray, np.ndarray],
        hub_ink: Tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> None:
        """Absorb one converged batch (``bounds`` rows are ``(m, K)``)."""
        sources = np.asarray(sources, dtype=np.int64)
        self._sources.append(sources)
        self._iterations.append(np.asarray(iterations, dtype=np.int64))
        if bounds is None:
            bounds = np.zeros((sources.size, self.capacity), dtype=np.float64)
        self._bounds.append(np.asarray(bounds, dtype=np.float64))
        for plane, triple in (
            ("residual", residual),
            ("retained", retained),
            ("hub_ink", hub_ink),
        ):
            counts, keys, values = triple
            self._plane_parts[plane].append(
                (
                    np.asarray(counts, dtype=np.int64),
                    np.asarray(keys, dtype=np.int64),
                    np.asarray(values, dtype=np.float64),
                )
            )
        self.n_collected += int(sources.size)

    def collected(self) -> CollectedStates:
        """Concatenate every absorbed batch into one :class:`CollectedStates`."""
        if not self._sources:
            return _empty_collected(self.capacity)
        planes = {}
        for plane, parts in self._plane_parts.items():
            planes[plane] = (
                np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]),
                np.concatenate([p[2] for p in parts]),
            )
        return CollectedStates(
            sources=np.concatenate(self._sources),
            iterations=np.concatenate(self._iterations),
            bounds=np.vstack(self._bounds),
            planes=planes,
        )


# ----------------------------------------------------------------------- #
# assembly
# ----------------------------------------------------------------------- #
def _segment_gather(
    dest_indptr: np.ndarray,
    dest_rows: np.ndarray,
    src_starts: np.ndarray,
    src_counts: np.ndarray,
    src_keys: np.ndarray,
    src_values: np.ndarray,
    out_keys: np.ndarray,
    out_values: np.ndarray,
) -> None:
    """Copy variable-length source segments into their destination rows."""
    total = int(src_counts.sum())
    if not total:
        return
    # Within-segment offsets 0..count-1, repeated per segment.
    offsets = np.arange(total, dtype=np.int64) - np.repeat(
        np.concatenate([[0], np.cumsum(src_counts)[:-1]]), src_counts
    )
    gather_src = np.repeat(src_starts, src_counts) + offsets
    gather_dst = np.repeat(dest_indptr[:-1][dest_rows], src_counts) + offsets
    out_keys[gather_dst] = src_keys[gather_src]
    out_values[gather_dst] = src_values[gather_src]


def assemble_store(
    start: int,
    stop: int,
    capacity: int,
    collected: Sequence[CollectedStates],
    hub_mask: np.ndarray,
    hub_top_k: Dict[int, np.ndarray],
) -> ColumnarStateStore:
    """Merge collected BCA segments plus hub / untargeted rows into a store.

    ``collected`` may come from several sinks (parallel shard workers) in any
    order; rows are placed by global source id.  Nodes in ``[start, stop)``
    that are neither collected nor hubs get the untargeted initial state
    (one unit of residue at themselves, all-zero bounds) — exactly what
    ``initial_node_state`` plus a trivial materialisation produces.
    """
    start, stop, capacity = int(start), int(stop), int(capacity)
    m = stop - start
    hub_local = np.asarray(hub_mask[start:stop], dtype=bool)

    parts = [c for c in collected if c.n_sources]
    if parts:
        sources = np.concatenate([c.sources for c in parts])
        order = np.argsort(sources, kind="stable")
        local = sources[order] - start
        if local.size and (local.min() < 0 or local.max() >= m):
            raise InvalidParameterError(
                f"collected sources fall outside the range [{start}, {stop})"
            )
        iterations_in = np.concatenate([c.iterations for c in parts])[order]
        bounds_in = np.vstack([c.bounds for c in parts])[order]
    else:
        sources = np.zeros(0, dtype=np.int64)
        order = np.zeros(0, dtype=np.int64)
        local = np.zeros(0, dtype=np.int64)
        iterations_in = np.zeros(0, dtype=np.int64)
        bounds_in = np.zeros((0, capacity), dtype=np.float64)

    built = np.zeros(m, dtype=bool)
    built[local] = True
    if np.any(built & hub_local):
        raise InvalidParameterError("collected sources include hub nodes")
    untargeted = ~built & ~hub_local
    hub_rows = np.flatnonzero(hub_local)
    untargeted_rows = np.flatnonzero(untargeted)

    arrays: Dict[str, np.ndarray] = {}
    for plane in _PLANES:
        if parts:
            plane_counts = np.concatenate([c.planes[plane][0] for c in parts])
            plane_keys = np.concatenate([c.planes[plane][1] for c in parts])
            plane_values = np.concatenate([c.planes[plane][2] for c in parts])
            seg_indptr = np.concatenate([[0], np.cumsum(plane_counts)])
            sel_counts = plane_counts[order]
            sel_starts = seg_indptr[:-1][order]
        else:
            plane_keys = np.zeros(0, dtype=np.int64)
            plane_values = np.zeros(0, dtype=np.float64)
            sel_counts = np.zeros(0, dtype=np.int64)
            sel_starts = np.zeros(0, dtype=np.int64)

        counts = np.zeros(m, dtype=np.int64)
        counts[local] = sel_counts
        # Singleton rows: hubs carry {node: 1.0} hub ink, untargeted nodes
        # carry {node: 1.0} residue; both have empty other planes.
        if plane == "hub_ink":
            counts[hub_rows] = 1
        elif plane == "residual":
            counts[untargeted_rows] = 1
        indptr = np.concatenate([[0], np.cumsum(counts)])
        keys = np.empty(int(indptr[-1]), dtype=np.int64)
        values = np.empty(int(indptr[-1]), dtype=np.float64)
        _segment_gather(
            indptr, local, sel_starts, sel_counts, plane_keys, plane_values,
            keys, values,
        )
        singleton = hub_rows if plane == "hub_ink" else (
            untargeted_rows if plane == "residual" else None
        )
        if singleton is not None and singleton.size:
            slots = indptr[:-1][singleton]
            keys[slots] = singleton + start
            values[slots] = 1.0
        arrays[f"{plane}_indptr"] = indptr
        arrays[f"{plane}_keys"] = keys
        arrays[f"{plane}_values"] = values

    lower = np.zeros((m, capacity), dtype=np.float64)
    if local.size:
        lower[local] = bounds_in[:, :capacity]
    for row in hub_rows.tolist():
        hub_bounds = hub_top_k[int(row + start)]
        count = min(capacity, hub_bounds.shape[0])
        lower[row, :count] = hub_bounds[:count]
    arrays["lower_bounds"] = lower

    iterations = np.zeros(m, dtype=np.int64)
    iterations[local] = iterations_in
    arrays["iterations"] = iterations
    arrays["is_hub"] = hub_local.copy()
    return ColumnarStateStore(arrays, capacity)
