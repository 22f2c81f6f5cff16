"""The one container of per-node BCA state: flat struct-of-arrays storage.

The paper's index keeps three column-per-node sparse matrices (``R``, ``W``,
``S``; Algorithm 1) beside the dense top-``K`` plane ``P̂``, and this module
stores the sparse three exactly so — the flattened layout
:data:`STATE_ARRAY_NAMES`, which is also, byte for byte, what the on-disk
per-shard ``.npy`` files persist.  ``P̂`` has one copy per shard, the
shard's ``(K, n)`` columnar ``lower`` plane, which the store borrows to hand
out each node's bounds.  Nothing else holds node state: every shard of the
index owns one store over its range (opened lazily over the layout's
memmaps), and builds, maintenance and query write-backs all hand over flat
segments.

``ColumnarStateStore``
    Struct-of-arrays state for a contiguous node range.  The arrays are
    immutable; writes land in an overlay of per-node :class:`StateArrays`
    (flat segments — a write-back is ``working.spill()`` → overlay, no dicts)
    consulted before the arrays and merged back by :meth:`to_arrays`.
    :meth:`~ColumnarStateStore.state_arrays` is the one per-node read.

``StateArraysSink``
    The kernel-side collector: converged block columns spill straight into
    flat ``(counts, keys, values)`` segments (plus bounds / iteration rows).

``assemble_store``
    Merges collected segments with vectorised hub rows into a finished
    store, ordered by node id.

Storage order is part of the state: the effective residual mass is a
sequential sum over a row's entries *in storage order*, so every path that
moves a row (merge, slice, pickle, persist) keeps its keys where they were.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import InvalidParameterError
from .hubs import HubSet
from .index import (
    STATE_ARRAY_NAMES,
    STATE_PLANES as _PLANES,
    _INDEX_BYTES,
    _VALUE_BYTES,
    StateArrays,
    _row_mass,
    effective_state_residual_mass,
)

class ColumnarStateStore:
    """Struct-of-arrays storage for the per-node states of a node range.

    The store owns one array per :data:`STATE_ARRAY_NAMES` entry covering
    ``n`` nodes (local ids ``0 .. n-1``) and borrows ``lower``, the range's
    ``(K, n)`` lower-bound plane: the owning shard's columnar
    ``lower`` array, never a copy of it (the shard re-points it when a
    write-back promotes a memmapped plane).  Writes land in an overlay of
    flat :class:`StateArrays` consulted before the arrays, so the arrays
    themselves (possibly read-only memmaps) stay immutable until
    :meth:`to_arrays` merges the overlay back.
    """

    def __init__(self, arrays: Dict[str, np.ndarray], lower: np.ndarray) -> None:
        missing = [name for name in STATE_ARRAY_NAMES if name not in arrays]
        if missing:
            raise InvalidParameterError(
                f"columnar state store is missing arrays: {missing}"
            )
        self.arrays: Dict[str, np.ndarray] = {
            name: arrays[name] for name in STATE_ARRAY_NAMES
        }
        n = int(self.arrays["is_hub"].shape[0])
        for plane in _PLANES:
            if self.arrays[f"{plane}_indptr"].shape[0] != n + 1:
                raise InvalidParameterError(
                    f"{plane}_indptr must have {n + 1} entries"
                )
        if lower.ndim != 2 or lower.shape[1] != n:
            raise InvalidParameterError(
                f"the lower-bound plane must have shape (K, {n}), got {lower.shape}"
            )
        self.lower = lower
        self.capacity = int(lower.shape[0])
        self._n = n
        self._overlay: Dict[int, StateArrays] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def rows(self, start: int, stop: int) -> "ColumnarStateStore":
        """A store over the rows ``[start, stop)``: heap copies, overlay merged."""
        merged = self.to_arrays()
        arrays: Dict[str, np.ndarray] = {
            name: np.array(merged[name][start:stop])
            for name in ("iterations", "is_hub")
        }
        for plane in _PLANES:
            indptr = np.asarray(merged[f"{plane}_indptr"][start : stop + 1])
            lo, hi = int(indptr[0]), int(indptr[-1])
            arrays[f"{plane}_indptr"] = indptr - lo
            arrays[f"{plane}_keys"] = np.array(merged[f"{plane}_keys"][lo:hi])
            arrays[f"{plane}_values"] = np.array(merged[f"{plane}_values"][lo:hi])
        return ColumnarStateStore(arrays, np.array(self.lower[:, start:stop]))

    # ------------------------------------------------------------------ #
    # per-node access
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._n

    @property
    def n_states(self) -> int:
        """Number of nodes covered by this store."""
        return self._n

    @property
    def overlay(self) -> Dict[int, StateArrays]:
        """Live write overlay: ``{local id: written StateArrays}``."""
        return self._overlay

    def state_arrays(self, node: int) -> StateArrays:
        """``node``'s flat segments: its overlay write, else its stored row."""
        written = self._overlay.get(node)
        if written is not None:
            return written
        return StateArrays.from_flat(self.arrays, self.lower, node)

    def set_state(self, node: int, state: StateArrays) -> None:
        """Write ``node``'s state into the overlay.

        Its bounds are not copied: the owning shard has already written them
        into ``node``'s column of the plane, and the overlay row views that
        column.
        """
        self._overlay[node] = replace(state, lower_bounds=self.lower[:, node])

    # ------------------------------------------------------------------ #
    # bulk columnar reads (the build / persist hot paths)
    # ------------------------------------------------------------------ #
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """The flattened state arrays, with any overlay writes merged in.

        With an empty overlay (the build hot path) this is a dict copy —
        the arrays themselves pass through untouched.
        """
        if not self._overlay:
            return dict(self.arrays)
        merged: Dict[str, np.ndarray] = {}
        for plane in _PLANES:
            merged.update(self._merge_plane(plane))
        iterations = np.array(self.arrays["iterations"], dtype=np.int64, copy=True)
        is_hub = np.array(self.arrays["is_hub"], dtype=bool, copy=True)
        for node, state in self._overlay.items():
            iterations[node] = state.iterations
            is_hub[node] = state.is_hub
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
            counts[node] = len(getattr(state, plane)[0])
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
            new_keys[dst_lo:dst_hi], new_values[dst_lo:dst_hi] = getattr(state, plane)
        return {
            f"{plane}_indptr": new_indptr,
            f"{plane}_keys": new_keys,
            f"{plane}_values": new_values,
        }

    def column_masses(self, hubs: HubSet, hub_deficit: np.ndarray) -> np.ndarray:
        """Per-node effective residual masses (overlay-aware), bitwise the
        per-node :func:`~repro.core.index.effective_state_residual_mass`."""
        hub_deficit = np.asarray(hub_deficit, dtype=np.float64)
        out = np.empty(self._n, dtype=np.float64)
        r_indptr = self.arrays["residual_indptr"].tolist()
        r_values = self.arrays["residual_values"]
        h_indptr = self.arrays["hub_ink_indptr"].tolist()
        h_keys = self.arrays["hub_ink_keys"]
        h_values = self.arrays["hub_ink_values"]
        for node in range(self._n):
            lo, hi = h_indptr[node], h_indptr[node + 1]
            out[node] = _row_mass(
                r_values[r_indptr[node] : r_indptr[node + 1]],
                h_keys[lo:hi],
                h_values[lo:hi],
                hubs,
                hub_deficit,
            )
        for node, state in self._overlay.items():
            out[node] = effective_state_residual_mass(state, hubs, hub_deficit)
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
        """Total sparse entries across planes (overlay-aware, O(overlay)).

        An O(1) peek at the index-pointer tails (memmaps stay lazy) plus one
        correction per overlaid node, whose write supersedes its stored row.
        """
        indptrs = [self.arrays[f"{plane}_indptr"] for plane in _PLANES]
        total = sum(int(indptr[-1]) for indptr in indptrs)
        for node, state in self._overlay.items():
            stored = sum(int(indptr[node + 1] - indptr[node]) for indptr in indptrs)
            total += state.stored_entries() - stored
        return total

    def resident_bytes(self) -> int:
        """Heap bytes held: non-memmap backing arrays plus the overlay's rows.

        The borrowed lower-bound plane is the shard's, and counted there.
        """
        total = sum(
            array.nbytes
            for array in self.arrays.values()
            if not isinstance(array, np.memmap)
        )
        for state in self._overlay.values():
            total += state.stored_entries() * (_VALUE_BYTES + _INDEX_BYTES)
        return int(total)

    def __getstate__(self) -> dict:
        """Pickle as flat arrays only: the overlay is merged, never shipped.

        A rollover clone gets :meth:`to_arrays`
        and an empty overlay — one generation's writes never ride along into
        the next; this store is left exactly as it was.  The written bounds
        already sit in the borrowed plane, which pickles once with its shard.
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

    def state_arrays(self) -> Iterator[Tuple[int, StateArrays]]:
        """``(source, flat state)`` per collected source, in collection order."""
        planes = [self.planes[plane] for plane in _PLANES]
        stops = [np.cumsum(counts).tolist() for counts, _, _ in planes]
        for row, source in enumerate(self.sources.tolist()):
            segments = []
            for (counts, keys, values), stop in zip(planes, stops):
                rows = slice(stop[row] - int(counts[row]), stop[row])
                segments.append((keys[rows], values[rows]))
            yield source, StateArrays(
                *segments, self.bounds[row], int(self.iterations[row])
            )


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
    """Collects converged kernel columns as flat arrays.

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
    """Merge collected BCA segments plus hub rows into a store.

    ``collected`` may come from several sinks (pool tasks) in any order; rows
    are placed by global source id.  Every node in ``[start, stop)`` is
    either collected or a hub; a hub row holds its exact top-K and one unit
    of ink parked at itself.
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
    if not np.all(built | hub_local):
        raise InvalidParameterError(
            f"non-hub nodes of [{start}, {stop}) are missing from the collected states"
        )
    hub_rows = np.flatnonzero(hub_local)

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
        # Hub rows carry one {node: 1.0} hub-ink entry and empty other planes.
        if plane == "hub_ink":
            counts[hub_rows] = 1
        indptr = np.concatenate([[0], np.cumsum(counts)])
        keys = np.empty(int(indptr[-1]), dtype=np.int64)
        values = np.empty(int(indptr[-1]), dtype=np.float64)
        _segment_gather(
            indptr, local, sel_starts, sel_counts, plane_keys, plane_values,
            keys, values,
        )
        if plane == "hub_ink" and hub_rows.size:
            slots = indptr[:-1][hub_rows]
            keys[slots] = hub_rows + start
            values[slots] = 1.0
        arrays[f"{plane}_indptr"] = indptr
        arrays[f"{plane}_keys"] = keys
        arrays[f"{plane}_values"] = values

    lower = np.zeros((capacity, m), dtype=np.float64)
    if local.size:
        lower[:, local] = bounds_in[:, :capacity].T
    for row in hub_rows.tolist():
        hub_bounds = hub_top_k[int(row + start)]
        count = min(capacity, hub_bounds.shape[0])
        lower[:count, row] = hub_bounds[:count]

    iterations = np.zeros(m, dtype=np.int64)
    iterations[local] = iterations_in
    arrays["iterations"] = iterations
    arrays["is_hub"] = hub_local.copy()
    return ColumnarStateStore(arrays, lower)
