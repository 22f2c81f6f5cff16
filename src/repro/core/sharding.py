"""Partitioned index shards with a query router (out-of-core serving).

The monolithic :class:`~repro.core.index.ReverseTopKIndex` keeps the whole
``(K, n)`` columnar state — plus every per-node BCA state dict — resident in
one process.  That caps the graph size a single serving process can hold well
short of the ROADMAP's "millions of users" target.  This module partitions
the index the same way PR 4 already shards its *construction*:

``IndexShard``
    One contiguous node range ``[start, stop)`` holding that range's slice of
    the columnar views (lower-bound matrix columns, effective-residual-mass
    vector, exactness mask) and its node states.  A shard is backed either

    * **in RAM** — plain writable arrays plus a materialised state list, or
    * **by the on-disk layout** — the columnar slices and the flattened
      state arrays are ``np.memmap`` views over per-shard ``.npy`` files
      opened read-only, and states are materialised lazily, per node, by
      slicing single rows out of the mapped arrays.

    The on-disk layout is **immutable**: a refinement write-back promotes the
    owning shard's columnar arrays into RAM (copy-on-write) instead of
    mutating files that are content-addressed by the snapshot layer.  Written
    states live in a per-shard overlay consulted before the lazy arrays.

``ShardedReverseTopKIndex``
    The partitioned index: global hub data (hub set, hub proximity matrix,
    rounding deficits) shared across ``P`` contiguous shards, plus the same
    node-level API the query engine consumes on the monolithic index
    (``state`` / ``set_state`` / ``sync_state`` / ``states`` /
    ``replace_contents`` / ``version``).  Reads and write-backs route to the
    owning shard; the mutation version stays **global** — one counter, bumped
    exactly like the monolithic index, so the serving layer's version-keyed
    cache behaves identically.

``ShardedReverseTopKEngine``
    The query router: PMPN runs once globally (proximities to the query do
    not partition), then Algorithm 4's vectorized scan — whole-array prune,
    exact shortcut, batched staircase bound — runs **per shard** over that
    shard's columnar slice, sequentially or fanned across a thread pool.
    Per-shard outcomes concatenate in shard order (node ranges are contiguous
    and ascending), so candidates refine in exactly the monolithic scan
    order and answers, statistics counters, and refinement write-backs are
    bit-identical to :class:`~repro.core.query.ReverseTopKEngine` on the
    equivalent monolithic index.

``build_sharded_index``
    Constructs the sharded layout directly — each shard's states are built
    (optionally on PR 4's process-pool shard workers) and written out before
    the next shard starts, so peak memory is one shard plus the hub matrix
    and there is **no monolithic merge step**.

Bit-identity argument, in one place: the staircase bound, prune comparison
and exactness shortcut are all column-local (no cross-node arithmetic), so
evaluating them on a column slice yields the same floats as on the full
matrix; per-shard candidate lists concatenated in shard order reproduce the
monolithic ascending candidate order; and refinement operates on the same
:class:`NodeState` values through the same kernel.  ``float64`` round-trips
through ``.npy``/``.npz`` files are bitwise exact, so memmap-backed shards
scan the same values an in-RAM shard holds.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
import contextlib
import os
from pathlib import Path
import threading
import time
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union
import zipfile

import numpy as np
import scipy.sparse as sp

from .._validation import (
    check_node_index,
    check_non_negative_int,
    check_positive_int,
)
from ..exceptions import InvalidParameterError, SerializationError
from ..graph.digraph import DiGraph
from ..obs.tracing import current_span
from .bounds import float32_prune_envelope
from .config import IndexParams
from .hubs import HubSet
from .index import (
    ColumnarView,
    NodeState,
    ReverseTopKIndex,
    StateArrays,
    _states_to_arrays,
    atomic_write,
    effective_state_residual_mass,
    params_from_arrays,
    params_to_arrays,
    resolve_hub_components,
    storage_breakdown,
)
from .lbi import (
    _bca_shard,
    _collect_shard,
    _compute_hub_matrix,
    _init_shard_worker,
    _resolve_build_inputs,
)
from .propagation import PropagationKernel, initial_node_state
from .query import ReverseTopKEngine, columnar_stage_decisions
from .statestore import (
    STATE_ARRAY_NAMES,
    ColumnarStateStore,
    StateArraysSink,
    assemble_store,
    count_materialization,
    stored_entries,
)

PathLike = Union[str, os.PathLike]

#: Accepted shard backings.
SHARD_BACKINGS = ("ram", "memmap")

#: On-disk layout format version (bumped on incompatible layout changes).
_LAYOUT_VERSION = 1

#: Name of the layout's global metadata archive.  It is written *last*:
#: a directory without a readable meta archive is a torn layout and is
#: treated as a snapshot miss, never loaded partially.
_META_NAME = "sharded-meta.npz"

#: Bytes per stored value/index in the resident-size estimate (mirrors the
#: monolithic index's Table 2 accounting).
_VALUE_BYTES = 8
_INDEX_BYTES = 8

#: Flattened per-shard state arrays (the :func:`_states_to_arrays` layout).
#: Each is persisted as its own ``.npy`` file so shards can memmap them and
#: materialise *single nodes* by slicing — loading a whole shard's states
#: because one candidate needed refinement would erode the memory budget.
#: The layout is canonically defined by the columnar state store — the
#: build path hands shards the same arrays it would otherwise persist.
_STATE_ARRAY_NAMES = STATE_ARRAY_NAMES


def shard_boundaries(n_nodes: int, n_shards: int) -> np.ndarray:
    """Contiguous, balanced node-range boundaries: ``P + 1`` ascending offsets.

    Shard ``i`` covers ``[boundaries[i], boundaries[i + 1])``.  Sizes differ
    by at most one (the first ``n_nodes % P`` shards get the extra node), and
    ``n_shards`` is clamped to ``n_nodes`` so no shard is ever empty.
    """
    check_positive_int(n_nodes, "n_nodes")
    check_positive_int(n_shards, "n_shards")
    n_shards = min(n_shards, n_nodes)
    base, extra = divmod(n_nodes, n_shards)
    sizes = np.full(n_shards, base, dtype=np.int64)
    sizes[:extra] += 1
    return np.concatenate([[0], np.cumsum(sizes)])


def _shard_stem(ordinal: int) -> str:
    return f"shard-{ordinal:05d}"


class IndexShard:
    """One contiguous node-range slice of a sharded reverse top-k index.

    Constructed through :meth:`from_states` (in-RAM backing) or
    :meth:`from_layout` (memmap backing over the immutable on-disk layout).
    Node indices at this level are *local* (``0 .. stop - start``); the
    owning :class:`ShardedReverseTopKIndex` translates.
    """

    def __init__(self, start: int, stop: int, capacity: int) -> None:
        if stop <= start:
            raise InvalidParameterError(
                f"shard range [{start}, {stop}) must be non-empty"
            )
        self.start = int(start)
        self.stop = int(stop)
        self.capacity = int(capacity)
        self.backing = "ram"
        self.directory: Optional[Path] = None
        self.ordinal: int = 0
        # Columnar slice (None = not yet opened for memmap shards).
        self._lower: Optional[np.ndarray] = None
        self._mass: Optional[np.ndarray] = None
        self._exact: Optional[np.ndarray] = None
        # float32 mirror of the lower slice (lazy; memmapped when the layout
        # carries a ``.lower32.npy`` file, derived from ``_lower`` otherwise).
        self._lower32: Optional[np.ndarray] = None
        # Per-k float64 screening rows derived from the mirror, cached so a
        # query workload converts each threshold row once, not per query.
        self._screen_bounds: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        # State storage: a full list (RAM) or lazy flattened arrays plus a
        # write overlay (memmap).
        self._states: Optional[List[NodeState]] = None
        self._state_arrays: Optional[Dict[str, np.ndarray]] = None
        self._overlay: Dict[int, NodeState] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_states(
        cls,
        start: int,
        stop: int,
        capacity: int,
        states: Sequence[NodeState],
        mass_of: Callable[[NodeState], float],
    ) -> "IndexShard":
        """In-RAM shard over ``states`` (one per node of the range, in order)."""
        shard = cls(start, stop, capacity)
        if len(states) != shard.n_nodes:
            raise InvalidParameterError(
                f"shard [{start}, {stop}) needs {shard.n_nodes} states, "
                f"got {len(states)}"
            )
        shard._states = list(states)
        shard._lower = np.zeros((capacity, shard.n_nodes), dtype=np.float64)
        shard._mass = np.zeros(shard.n_nodes, dtype=np.float64)
        shard._exact = np.zeros(shard.n_nodes, dtype=bool)
        for local, state in enumerate(shard._states):
            shard._write_column(local, state, mass_of(state))
        return shard

    @classmethod
    def from_columns(
        cls,
        start: int,
        stop: int,
        capacity: int,
        columns: ColumnarView,
        states: Sequence[NodeState],
    ) -> "IndexShard":
        """In-RAM shard adopting pre-built columnar slices (copied)."""
        shard = cls(start, stop, capacity)
        if len(states) != shard.n_nodes:
            raise InvalidParameterError(
                f"shard [{start}, {stop}) needs {shard.n_nodes} states, "
                f"got {len(states)}"
            )
        shard._states = list(states)
        shard._lower = np.array(columns.lower, dtype=np.float64, copy=True)
        shard._mass = np.array(columns.residual_mass, dtype=np.float64, copy=True)
        shard._exact = np.array(columns.is_exact, dtype=bool, copy=True)
        return shard

    @classmethod
    def from_store(
        cls,
        start: int,
        stop: int,
        capacity: int,
        store: ColumnarStateStore,
        mass: np.ndarray,
    ) -> "IndexShard":
        """In-RAM shard adopting a columnar state store (no state objects).

        The store's flattened arrays become the shard's lazy state backing
        directly — exactly the representation :meth:`write` persists and
        :meth:`from_layout` memmaps back — so building, persisting and
        scanning a shard never materialises per-node ``NodeState`` objects;
        states stay lazy per node, as on a memmap shard.  ``mass`` is the
        per-node effective residual mass (the store computes it bitwise
        exactly as ``effective_state_residual_mass``).
        """
        shard = cls(start, stop, capacity)
        if store.n_states != shard.n_nodes:
            raise InvalidParameterError(
                f"shard [{start}, {stop}) needs {shard.n_nodes} states, "
                f"got {store.n_states}"
            )
        if int(store.capacity) != shard.capacity:
            raise InvalidParameterError(
                f"store capacity {store.capacity} does not match the shard "
                f"capacity {capacity}"
            )
        mass = np.ascontiguousarray(mass, dtype=np.float64)
        if mass.shape != (shard.n_nodes,):
            raise InvalidParameterError(
                f"shard [{start}, {stop}) needs {shard.n_nodes} masses, "
                f"got shape {mass.shape}"
            )
        shard._state_arrays = store.to_arrays()
        shard._lower = store.lower_matrix()
        shard._mass = mass
        shard._exact = store.is_exact_mask()
        return shard

    @classmethod
    def from_layout(
        cls, directory: PathLike, ordinal: int, start: int, stop: int, capacity: int
    ) -> "IndexShard":
        """Memmap shard over the immutable layout files in ``directory``.

        Nothing is opened here; columnar memmaps and state arrays load
        lazily on first access, so constructing a sharded index from a large
        layout is O(P) metadata work.
        """
        shard = cls(start, stop, capacity)
        shard.backing = "memmap"
        shard.directory = Path(directory)
        shard.ordinal = int(ordinal)
        suffixes = ["lower.npy", "mass.npy", "exact.npy"]
        suffixes += [f"states.{name}.npy" for name in _STATE_ARRAY_NAMES]
        for suffix in suffixes:
            path = shard.directory / f"{_shard_stem(ordinal)}.{suffix}"
            if not path.exists():
                raise SerializationError(f"sharded layout is missing {path}")
        return shard

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def n_nodes(self) -> int:
        """Number of nodes in this shard's range."""
        return self.stop - self.start

    @property
    def is_promoted(self) -> bool:
        """Whether a write-back copied this shard's columns into RAM."""
        return self.backing == "memmap" and self._lower is not None and (
            self._lower.flags.writeable
        )

    @property
    def columns(self) -> ColumnarView:
        """This shard's columnar slice (read-only for callers)."""
        self._ensure_columns()
        return ColumnarView(
            lower=self._lower, residual_mass=self._mass, is_exact=self._exact
        )

    def _ensure_columns(self) -> None:
        if self._lower is not None:
            return
        stem = _shard_stem(self.ordinal)
        try:
            lower = np.load(self.directory / f"{stem}.lower.npy", mmap_mode="r")
            mass = np.load(self.directory / f"{stem}.mass.npy", mmap_mode="r")
            exact = np.load(self.directory / f"{stem}.exact.npy", mmap_mode="r")
        except (OSError, ValueError) as exc:
            raise SerializationError(
                f"cannot open shard {self.ordinal} columns under {self.directory}: {exc}"
            ) from exc
        if lower.shape != (self.capacity, self.n_nodes):
            raise SerializationError(
                f"shard {self.ordinal} lower matrix has shape {lower.shape}, "
                f"expected {(self.capacity, self.n_nodes)}"
            )
        # Concurrent read-side opens are benign duplicates, but the guard
        # field (_lower) must be published *last*: a reader that sees it set
        # must never find the companions still None.
        self._mass = mass
        self._exact = exact
        self._lower = lower

    def lower32(self) -> np.ndarray:
        """The float32 mirror of this shard's lower-bound slice (read-only).

        Memmap shards open the layout's ``.lower32.npy`` companion when it
        exists (written by current layouts; absent from older ones), so the
        screening pass streams half the bytes off disk; otherwise — and for
        RAM or promoted shards, whose live float64 columns are the only
        authoritative values — the mirror is derived from ``_lower`` and
        cached.  Write-backs keep a derived mirror in sync and drop a
        memmapped one (promotion makes the on-disk file stale).
        """
        self._ensure_columns()
        if self._lower32 is None:
            path = (
                self.directory / f"{_shard_stem(self.ordinal)}.lower32.npy"
                if self.backing == "memmap" and not self.is_promoted
                else None
            )
            if path is not None and path.exists():
                try:
                    mirror = np.load(path, mmap_mode="r")
                except (OSError, ValueError) as exc:
                    raise SerializationError(
                        f"cannot open shard {self.ordinal} float32 plane "
                        f"under {self.directory}: {exc}"
                    ) from exc
                if mirror.shape != self._lower.shape or mirror.dtype != np.float32:
                    raise SerializationError(
                        f"shard {self.ordinal} float32 plane has shape "
                        f"{mirror.shape} dtype {mirror.dtype}, expected "
                        f"{self._lower.shape} float32"
                    )
                self._lower32 = mirror
            else:
                self._lower32 = np.asarray(self._lower, dtype=np.float32)
        return self._lower32

    def screen_bounds(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Cached ``(hi, lo)`` float64 prune screens for rank ``k``.

        ``hi``/``lo`` bracket the float32 threshold row by the conservative
        rounding envelope: a proximity at or above ``hi`` provably survives
        the float64 prune, one below ``lo`` provably does not, and only the
        sliver in between needs the float64 row.  The rows depend solely on
        the (immutable until write-back) float32 mirror, so they are computed
        once per ``k`` instead of once per query.
        """
        cached = self._screen_bounds.get(k)
        if cached is None:
            thresholds = np.asarray(self.lower32()[k - 1], dtype=np.float64)
            envelope = float32_prune_envelope(thresholds)
            cached = (thresholds + envelope, thresholds - envelope)
            self._screen_bounds[k] = cached
        return cached

    def _ensure_state_arrays(self) -> Dict[str, np.ndarray]:
        """Open the per-array state memmaps (lazy; O(1) resident memory).

        The arrays stay memory-mapped: :meth:`_materialize_state` slices one
        node's rows out of them, so only the pages a refinement candidate
        actually touches ever become resident — states are lazy *per node*,
        not per shard.
        """
        if self._state_arrays is None:
            stem = _shard_stem(self.ordinal)
            arrays: Dict[str, np.ndarray] = {}
            try:
                for name in _STATE_ARRAY_NAMES:
                    arrays[name] = np.load(
                        self.directory / f"{stem}.states.{name}.npy", mmap_mode="r"
                    )
            except (OSError, ValueError) as exc:
                raise SerializationError(
                    f"cannot open shard states under {self.directory}: {exc}"
                ) from exc
            self._state_arrays = arrays
        return self._state_arrays

    # ------------------------------------------------------------------ #
    # state access
    # ------------------------------------------------------------------ #
    def state(self, local: int) -> NodeState:
        """The state of local node ``local`` (materialised lazily on memmap).

        Lazy shards *pin* the materialised state in the overlay: the
        monolithic index's contract is that ``state()`` returns the stored
        mutable object (callers mutate it in place and call ``sync_state``),
        so repeated reads must observe one identity — an ephemeral copy
        would silently drop in-place mutations.  Only nodes actually read
        through this path (refinement candidates) are pinned; the scan never
        touches states, and bulk iteration uses :meth:`iter_states`.
        """
        if self._states is not None:
            return self._states[local]
        overlaid = self._overlay.get(local)
        if overlaid is not None:
            return overlaid
        state = self._materialize_state(local)
        self._overlay[local] = state
        return state

    def iter_states(self) -> Iterator[NodeState]:
        """States of the range in node order (overlay-aware, non-pinning).

        Bulk consumers (persistence, maintenance materialisation) read every
        state once by value; pinning them all would defeat the lazy backing.
        """
        if self._states is not None:
            yield from self._states
            return
        for local in range(self.n_nodes):
            overlaid = self._overlay.get(local)
            yield overlaid if overlaid is not None else self._materialize_state(local)

    def state_arrays(self, local: int) -> StateArrays:
        """Flat-segment read of ``local``'s state: nothing pinned or built.

        Lazy shards slice the node's rows straight off the (possibly
        memmapped, read-only) flattened arrays; overlaid write-backs and
        object-backed shards flatten the stored state instead.
        """
        if self._states is not None:
            return StateArrays.from_state(self._states[local])
        overlaid = self._overlay.get(local)
        if overlaid is not None:
            return StateArrays.from_state(overlaid)
        return StateArrays.from_flat(self._ensure_state_arrays(), local)

    def _materialize_state(self, local: int) -> NodeState:
        count_materialization()
        return StateArrays.from_flat(self._ensure_state_arrays(), local).to_state()

    def set_state(self, local: int, state: NodeState, mass: float) -> None:
        """Store a state write-back and refresh its column.

        Memmap shards promote their columnar arrays to RAM first (the disk
        layout is immutable) and record the state in the overlay.
        """
        if self._states is not None:
            self._states[local] = state
        else:
            self._overlay[local] = state
        self._promote_columns()
        self._write_column(local, state, mass)

    def _promote_columns(self) -> None:
        """Copy-on-write: make the columnar arrays private and writable."""
        self._ensure_columns()
        if not self._lower.flags.writeable:
            self._lower = np.array(self._lower, dtype=np.float64, copy=True)
            self._mass = np.array(self._mass, dtype=np.float64, copy=True)
            self._exact = np.array(self._exact, dtype=bool, copy=True)
            # The on-disk float32 plane mirrors the *unpromoted* columns;
            # drop it so the next screened scan re-derives from the promoted
            # float64 truth instead of reading a stale file.
            self._lower32 = None
            self._screen_bounds.clear()

    def _write_column(self, local: int, state: NodeState, mass: float) -> None:
        count = min(self.capacity, state.lower_bounds.size)
        self._lower[:count, local] = state.lower_bounds[:count]
        self._lower[count:, local] = 0.0
        self._mass[local] = mass
        self._exact[local] = state.is_exact
        if self._lower32 is not None:
            self._lower32[:, local] = self._lower[:, local]
        if self._screen_bounds:
            self._screen_bounds.clear()

    # ------------------------------------------------------------------ #
    # accounting / persistence
    # ------------------------------------------------------------------ #
    def stored_entries(self) -> int:
        """Total sparse state entries in this shard (for size accounting).

        A lazy shard answers by peeking at the on-disk index pointers
        *without* populating the state-array cache — size accounting (the
        layout meta records it) must not force the whole shard resident.
        """
        if self._states is not None:
            return sum(state.stored_entries() for state in self._states)
        return stored_entries(self._ensure_state_arrays(), self._overlay)

    def resident_bytes(self) -> int:
        """Rough bytes this shard currently keeps in RAM (not on disk)."""
        total = 0
        if self._lower is not None and (
            self.backing == "ram" or self._lower.flags.writeable
        ):
            total += self._lower.nbytes + self._mass.nbytes + self._exact.nbytes
        if self._lower32 is not None and not isinstance(self._lower32, np.memmap):
            total += self._lower32.nbytes
        if self._states is not None:
            entries = sum(state.stored_entries() for state in self._states)
            total += entries * (_VALUE_BYTES + _INDEX_BYTES)
            total += self.n_nodes * self.capacity * _VALUE_BYTES
        if self._state_arrays is not None:
            # Memmapped state arrays are backed by the page cache, not the
            # process heap; only materialised (heap) arrays count.
            total += sum(
                array.nbytes
                for array in self._state_arrays.values()
                if not isinstance(array, np.memmap)
            )
        for state in self._overlay.values():
            total += state.stored_entries() * (_VALUE_BYTES + _INDEX_BYTES)
            total += self.capacity * _VALUE_BYTES
        return total

    def write(self, directory: PathLike, ordinal: int) -> None:
        """Persist this shard's columnar slices and state arrays (atomic)."""
        directory = Path(directory)
        stem = _shard_stem(ordinal)
        columns = self.columns
        lower = np.ascontiguousarray(columns.lower, dtype=np.float64)
        mass = np.ascontiguousarray(columns.residual_mass, dtype=np.float64)
        exact = np.ascontiguousarray(columns.is_exact, dtype=bool)
        if self._states is None and not self._overlay:
            # Array-backed (or clean memmap) shard with no overlaid writes:
            # the flattened arrays *are* the persisted representation —
            # write them out directly, never materialising a per-node
            # state object.
            arrays = self._ensure_state_arrays()
        else:
            states = list(self.iter_states())
            arrays = _states_to_arrays(states, self.capacity)
        atomic_write(
            directory / f"{stem}.lower.npy", lambda handle: np.save(handle, lower)
        )
        # The float32 screening plane: written alongside the float64 truth so
        # memmap-backed scans stream half the bytes; derived data, so layouts
        # without it (older writers) simply fall back to the float64 slice.
        lower32 = lower.astype(np.float32)
        atomic_write(
            directory / f"{stem}.lower32.npy", lambda handle: np.save(handle, lower32)
        )
        atomic_write(
            directory / f"{stem}.mass.npy", lambda handle: np.save(handle, mass)
        )
        atomic_write(
            directory / f"{stem}.exact.npy", lambda handle: np.save(handle, exact)
        )
        for name in _STATE_ARRAY_NAMES:
            array = arrays[name]
            atomic_write(
                directory / f"{stem}.states.{name}.npy",
                lambda handle, array=array: np.save(handle, array),
            )

    # ------------------------------------------------------------------ #
    # pickling (process-pool workers)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """Ship paths for clean memmap shards, arrays for everything else.

        A clean disk-backed shard pickles to its directory reference only —
        process-pool workers reopen the memmaps locally and share the page
        cache instead of receiving a full copy of the arrays.
        """
        state = self.__dict__.copy()
        # The float32 mirror and its screening rows are derived (and possibly
        # memmap-backed); receivers re-derive or reopen them lazily.
        state["_lower32"] = None
        state["_screen_bounds"] = {}
        if self.backing == "memmap":
            # State memmaps never ship (np.memmap pickles by value); the
            # receiver reopens them lazily.  Columns ship only once promoted
            # — a promoted shard's RAM copies are the authoritative values.
            state["_state_arrays"] = None
            if not self.is_promoted:
                state["_lower"] = None
                state["_mass"] = None
                state["_exact"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def __repr__(self) -> str:
        return (
            f"IndexShard([{self.start}, {self.stop}), backing={self.backing!r}"
            f"{', promoted' if self.is_promoted else ''})"
        )


class ShardedReverseTopKIndex:
    """A reverse top-k index partitioned into contiguous node-range shards.

    Exposes the node-level surface the query engine and the dynamic
    maintainer consume on :class:`~repro.core.index.ReverseTopKIndex`
    (``state`` / ``set_state`` / ``sync_state`` / ``states`` /
    ``replace_contents`` / ``kth_lower_bounds`` / ``version``), routing each
    call to the owning shard.  Hub data is global — every shard's states
    reference the same hub proximity matrix — and so is the mutation
    version: one counter, bumped once per write-back exactly like the
    monolithic index, which keeps the serving layer's version-keyed cache
    semantics unchanged.
    """

    def __init__(
        self,
        params: IndexParams,
        hubs: HubSet,
        hub_matrix: sp.spmatrix,
        hub_deficit: np.ndarray,
        shards: Sequence[IndexShard],
        *,
        build_seconds: float = 0.0,
        directory: Optional[Path] = None,
    ) -> None:
        self.params = params
        self.hubs = hubs
        self.hub_matrix = hub_matrix.tocsc()
        self.hub_deficit = np.asarray(hub_deficit, dtype=np.float64)
        self.shards: List[IndexShard] = list(shards)
        self.build_seconds = float(build_seconds)
        #: Layout directory the shards were loaded from (``None`` for pure
        #: in-RAM indexes); informational — persistence always takes an
        #: explicit target.
        self.directory = directory
        self._version = 0
        if not self.shards:
            raise InvalidParameterError("a sharded index needs at least one shard")
        expected = 0
        for shard in self.shards:
            if shard.start != expected:
                raise InvalidParameterError(
                    f"shard ranges must be contiguous from 0; found a shard "
                    f"starting at {shard.start} where {expected} was expected"
                )
            expected = shard.stop
        self._boundaries = np.array(
            [shard.start for shard in self.shards] + [expected], dtype=np.int64
        )
        if self.hub_matrix.shape[1] != len(hubs):
            raise ValueError(
                f"hub matrix has {self.hub_matrix.shape[1]} columns but "
                f"{len(hubs)} hubs"
            )
        if self.hub_deficit.size != len(hubs):
            raise ValueError("hub_deficit length must equal the number of hubs")
        if self.hub_matrix.shape[0] not in (0, expected):
            raise ValueError(
                f"hub matrix has {self.hub_matrix.shape[0]} rows but the "
                f"shards cover {expected} nodes"
            )

    # ------------------------------------------------------------------ #
    # basic accessors (monolithic-index surface)
    # ------------------------------------------------------------------ #
    @property
    def n_nodes(self) -> int:
        """Number of indexed nodes across all shards."""
        return int(self._boundaries[-1])

    @property
    def n_shards(self) -> int:
        """Number of partitions ``P``."""
        return len(self.shards)

    @property
    def capacity(self) -> int:
        """The maximum k supported by this index (``K``)."""
        return self.params.capacity

    @property
    def version(self) -> int:
        """Global monotonic mutation counter (see the monolithic index)."""
        return self._version

    @property
    def boundaries(self) -> np.ndarray:
        """``P + 1`` ascending shard-range offsets (copy)."""
        return self._boundaries.copy()

    def shard_of(self, node: int) -> Tuple[IndexShard, int]:
        """The shard owning ``node`` and the node's local offset within it."""
        node = check_node_index(node, self.n_nodes)
        ordinal = int(np.searchsorted(self._boundaries, node, side="right")) - 1
        shard = self.shards[ordinal]
        return shard, node - shard.start

    def state(self, node: int) -> NodeState:
        """The state of ``node``, routed to (and materialised by) its shard."""
        shard, local = self.shard_of(node)
        return shard.state(local)

    def state_arrays(self, node: int) -> StateArrays:
        """``node``'s state as flat segments, routed to its shard (no pin)."""
        shard, local = self.shard_of(node)
        return shard.state_arrays(local)

    def set_state(self, node: int, state: NodeState) -> None:
        """Persist a state write-back into the owning shard (version bump)."""
        shard, local = self.shard_of(node)
        shard.set_state(local, state, self.state_residual_mass(state))
        self._version += 1

    def sync_state(self, node: int) -> None:
        """Refresh the owning shard's column for ``node`` (version bump)."""
        shard, local = self.shard_of(node)
        state = shard.state(local)
        shard.set_state(local, state, self.state_residual_mass(state))
        self._version += 1

    def states(self) -> Iterable[Tuple[int, NodeState]]:
        """Iterate ``(node, state)`` pairs in node order across shards."""
        for shard in self.shards:
            for local, state in enumerate(shard.iter_states()):
                yield shard.start + local, state

    def state_residual_mass(self, state: NodeState) -> float:
        """Effective residual mass of a (possibly detached) state."""
        return effective_state_residual_mass(state, self.hubs, self.hub_deficit)

    def effective_residual_mass(self, node: int) -> float:
        """Residue mass of ``node``'s state, including the rounding deficit."""
        return self.state_residual_mass(self.state(node))

    def apply_updates(
        self,
        states: Dict[int, NodeState],
        *,
        hub_matrix: Optional[sp.spmatrix] = None,
        hub_deficit: Optional[np.ndarray] = None,
    ) -> None:
        """Targeted maintenance writes with a single version bump.

        The delta-maintenance fast path's sharded twin of
        :meth:`ReverseTopKIndex.apply_updates`: each rewritten node routes
        to its owning shard (memmap shards promote copy-on-write and record
        the state in their overlay), untouched shards and nodes stay lazy,
        and the global version bumps exactly once.  The hub set itself is
        unchanged by construction.
        """
        _, self.hub_matrix, self.hub_deficit = resolve_hub_components(
            self, None, hub_matrix, hub_deficit, allow_rowless=True
        )
        for node, state in states.items():
            shard, local = self.shard_of(node)
            shard.set_state(local, state, self.state_residual_mass(state))
        self._version += 1

    def kth_lower_bounds(self, k: int) -> np.ndarray:
        """The k-th lower bound of every node, concatenated across shards."""
        k = check_positive_int(k, "k")
        if k > self.capacity:
            raise InvalidParameterError(
                f"k={k} exceeds the index capacity K={self.capacity}"
            )
        return np.concatenate(
            [np.asarray(shard.columns.lower[k - 1]) for shard in self.shards]
        )

    def replace_contents(
        self,
        *,
        hubs: Optional[HubSet] = None,
        hub_matrix: Optional[sp.spmatrix] = None,
        hub_deficit: Optional[np.ndarray] = None,
        states: Optional[List[NodeState]] = None,
    ) -> None:
        """Swap index components wholesale after dynamic-graph maintenance.

        Mirrors :meth:`ReverseTopKIndex.replace_contents`: all components are
        validated together, every shard is rebuilt (in RAM — the immutable
        disk layout, if any, is now stale and must be re-persisted by the
        snapshot layer under the new graph's content key), and the global
        version is bumped exactly once.  Shard boundaries are preserved, so
        maintenance invalidations land in their owning shards.
        """
        new_hubs, new_matrix, new_deficit = resolve_hub_components(
            self, hubs, hub_matrix, hub_deficit
        )
        if states is not None and len(states) != self.n_nodes:
            raise ValueError(f"expected {self.n_nodes} states, got {len(states)}")
        if states is None:
            states = [state for _, state in self.states()]
        self.hubs = new_hubs
        self.hub_matrix = new_matrix
        self.hub_deficit = new_deficit
        mass_of = self.state_residual_mass
        rebuilt = [
            IndexShard.from_states(
                shard.start,
                shard.stop,
                self.capacity,
                states[shard.start : shard.stop],
                mass_of,
            )
            for shard in self.shards
        ]
        self.shards = rebuilt
        self.directory = None
        self._version += 1

    def adopt(self, fresh: "ShardedReverseTopKIndex") -> None:
        """Swap in another sharded index's components, in place.

        The dynamic maintainer's full-rebuild escape hatch builds a fresh
        sharded index for the new graph and splices it into the *live*
        object, so every holder of a reference (engine, serving façade)
        keeps observing the same index and the same monotonic version
        counter — bumped exactly once, like :meth:`replace_contents`.
        """
        if fresh.n_nodes != self.n_nodes:
            raise ValueError(
                f"cannot adopt an index over {fresh.n_nodes} nodes into one "
                f"covering {self.n_nodes}"
            )
        self.params = fresh.params
        self.hubs = fresh.hubs
        self.hub_matrix = fresh.hub_matrix
        self.hub_deficit = fresh.hub_deficit
        self.shards = list(fresh.shards)
        self._boundaries = fresh._boundaries.copy()
        self.directory = fresh.directory
        self._version += 1

    # ------------------------------------------------------------------ #
    # size accounting
    # ------------------------------------------------------------------ #
    def storage_bytes(self) -> Dict[str, int]:
        """Approximate logical storage per component (Table 2 accounting)."""
        return storage_breakdown(
            self, sum(shard.stored_entries() for shard in self.shards)
        )

    def total_bytes(self) -> int:
        """Total approximate logical index size in bytes."""
        return self.storage_bytes()["total"]

    def resident_bytes(self) -> int:
        """Rough bytes currently held in RAM across shards and hub data.

        Memmap-backed shards whose columns and states were never touched
        contribute nothing; the gap between this and :meth:`total_bytes` is
        what the partitioned layout saves a serving process.
        """
        hub_bytes = self.hub_matrix.nnz * (_VALUE_BYTES + _INDEX_BYTES)
        return hub_bytes + sum(shard.resident_bytes() for shard in self.shards)

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    @classmethod
    def from_index(
        cls,
        index: ReverseTopKIndex,
        n_shards: int,
        *,
        directory: Optional[PathLike] = None,
        memory_budget: Optional[int] = None,
    ) -> "ShardedReverseTopKIndex":
        """Partition a monolithic index into ``n_shards`` contiguous shards.

        ``memory_budget`` (bytes) selects the backing: ``None`` keeps every
        shard in RAM; otherwise, when the index's approximate size exceeds
        the budget the layout is persisted under ``directory`` and loaded
        back memmap-backed (``directory`` is then required).
        """
        boundaries = shard_boundaries(index.n_nodes, n_shards)
        columns = index.columns
        all_states = [state for _, state in index.states()]
        shards = [
            IndexShard.from_columns(
                int(start),
                int(stop),
                index.capacity,
                ColumnarView(
                    lower=columns.lower[:, start:stop],
                    residual_mass=columns.residual_mass[start:stop],
                    is_exact=columns.is_exact[start:stop],
                ),
                all_states[start:stop],
            )
            for start, stop in zip(boundaries[:-1], boundaries[1:])
        ]
        sharded = cls(
            index.params,
            index.hubs,
            index.hub_matrix,
            index.hub_deficit,
            shards,
            build_seconds=index.build_seconds,
        )
        if _resolve_backing(sharded.total_bytes(), memory_budget) == "memmap":
            path = _require_directory(directory, memory_budget)
            sharded.persist(path)
            return cls.load(path, memory_budget=memory_budget)
        return sharded

    def to_index(self) -> ReverseTopKIndex:
        """Materialise the equivalent monolithic index (RAM-heavy; tests)."""
        states = [state for _, state in self.states()]
        index = ReverseTopKIndex(
            self.params,
            self.hubs,
            self.hub_matrix,
            self.hub_deficit,
            states,
            build_seconds=self.build_seconds,
        )
        return index

    # ------------------------------------------------------------------ #
    # persistence (the on-disk layout)
    # ------------------------------------------------------------------ #
    def persist(self, directory: PathLike) -> Path:
        """Write the full sharded layout under ``directory``.

        Per-shard files first, the global ``sharded-meta.npz`` last — a torn
        write leaves a directory without a readable meta archive, which
        :meth:`load` rejects, so readers never observe a partial layout.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for ordinal, shard in enumerate(self.shards):
            shard.write(directory, ordinal)
        self._write_meta(directory)
        return directory

    def _write_meta(self, directory: Path) -> None:
        """Write (and thereby seal) the layout's global metadata archive."""
        hub_matrix = self.hub_matrix.tocoo()
        meta = {
            "layout_version": np.array([_LAYOUT_VERSION], dtype=np.int64),
            "boundaries": self._boundaries,
            **params_to_arrays(self.params),
            "hubs": np.asarray(self.hubs.nodes, dtype=np.int64),
            "hub_deficit": self.hub_deficit,
            "hub_rows": hub_matrix.row.astype(np.int64),
            "hub_cols": hub_matrix.col.astype(np.int64),
            "hub_vals": hub_matrix.data.astype(np.float64),
            "hub_shape": np.asarray(self.hub_matrix.shape, dtype=np.int64),
            "build_seconds": np.array([self.build_seconds]),
            "total_bytes": np.array([self.total_bytes()], dtype=np.int64),
        }
        atomic_write(
            directory / _META_NAME,
            lambda handle: np.savez_compressed(handle, **meta),
        )

    @classmethod
    def load(
        cls, directory: PathLike, *, memory_budget: Optional[int] = None
    ) -> "ShardedReverseTopKIndex":
        """Load a layout written by :meth:`persist`.

        ``memory_budget`` decides the backing exactly as at build time:
        ``None`` materialises every shard into RAM; with a budget the shards
        stay memmap-backed (lazy columns, per-node lazy states) whenever the
        recorded index size exceeds it.
        """
        directory = Path(directory)
        meta_path = directory / _META_NAME
        try:
            with np.load(meta_path, allow_pickle=False) as data:
                if int(data["layout_version"][0]) != _LAYOUT_VERSION:
                    raise SerializationError(
                        f"unsupported sharded layout version "
                        f"{int(data['layout_version'][0])} at {directory}"
                    )
                params = params_from_arrays(data)
                hubs = HubSet.from_iterable(data["hubs"].tolist())
                shape = tuple(int(x) for x in data["hub_shape"])
                hub_matrix = sp.coo_matrix(
                    (data["hub_vals"], (data["hub_rows"], data["hub_cols"])),
                    shape=shape,
                ).tocsc()
                hub_deficit = np.array(data["hub_deficit"], dtype=np.float64)
                boundaries = np.array(data["boundaries"], dtype=np.int64)
                build_seconds = float(data["build_seconds"][0])
                total_bytes = int(data["total_bytes"][0])
        except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
            raise SerializationError(
                f"cannot load sharded layout from {directory}: {exc}"
            ) from exc
        shards = [
            IndexShard.from_layout(
                directory, ordinal, int(start), int(stop), params.capacity
            )
            for ordinal, (start, stop) in enumerate(
                zip(boundaries[:-1], boundaries[1:])
            )
        ]
        sharded = cls(
            params,
            hubs,
            hub_matrix,
            hub_deficit,
            shards,
            build_seconds=build_seconds,
            directory=directory,
        )
        if _resolve_backing(total_bytes, memory_budget) == "ram":
            sharded._materialize_all()
        return sharded

    def _materialize_all(self) -> None:
        """Promote every shard to an in-RAM shard (no disk-lazy storage).

        Clean memmap shards (no overlaid writes) promote by copying their
        flattened state arrays into RAM wholesale — states stay lazy *per
        node* and no ``NodeState`` objects are created.  Shards carrying
        overlay writes or materialised state lists fall back to the
        object-based rebuild, which folds the overlay in.
        """
        promoted: List[IndexShard] = []
        for shard in self.shards:
            if shard._states is None and not shard._overlay:
                arrays = shard._ensure_state_arrays()
                columns = shard.columns
                fresh = IndexShard(shard.start, shard.stop, self.capacity)
                fresh._state_arrays = {
                    name: np.array(arrays[name]) for name in _STATE_ARRAY_NAMES
                }
                fresh._lower = np.array(columns.lower, dtype=np.float64, copy=True)
                fresh._mass = np.array(
                    columns.residual_mass, dtype=np.float64, copy=True
                )
                fresh._exact = np.array(columns.is_exact, dtype=bool, copy=True)
            else:
                fresh = IndexShard.from_columns(
                    shard.start,
                    shard.stop,
                    self.capacity,
                    shard.columns,
                    list(shard.iter_states()),
                )
            promoted.append(fresh)
        self.shards = promoted
        # Boundaries are unchanged; keep the recorded directory so callers
        # can tell where this index came from.

    def __repr__(self) -> str:
        backings = {shard.backing for shard in self.shards}
        return (
            f"ShardedReverseTopKIndex(n_nodes={self.n_nodes}, "
            f"K={self.capacity}, hubs={len(self.hubs)}, "
            f"shards={self.n_shards}, backing={'/'.join(sorted(backings))})"
        )


def _resolve_backing(total_bytes: int, memory_budget: Optional[int]) -> str:
    """Pick the shard backing for an index of ``total_bytes`` under a budget.

    ``None`` budget means "hold everything in RAM" (the monolithic default);
    otherwise the index goes out-of-core exactly when it does not fit.  A
    budget of ``0`` therefore always selects the memmap layout.
    """
    if memory_budget is None:
        return "ram"
    check_non_negative_int(memory_budget, "memory_budget")
    return "ram" if total_bytes <= memory_budget else "memmap"


def _require_directory(
    directory: Optional[PathLike], memory_budget: Optional[int]
) -> Path:
    if directory is None:
        raise InvalidParameterError(
            f"memory_budget={memory_budget} requires the memmap layout, "
            "which needs a directory (pass directory=..., or configure a "
            "snapshot_dir on the service)"
        )
    return Path(directory)


# ----------------------------------------------------------------------- #
# direct sharded construction (no monolithic merge step)
# ----------------------------------------------------------------------- #
def build_sharded_index(
    graph: Union[DiGraph, sp.spmatrix],
    params: Optional[IndexParams] = None,
    *,
    hubs: Optional[HubSet] = None,
    transition: Optional[sp.spmatrix] = None,
    n_shards: int = 4,
    directory: Optional[PathLike] = None,
    memory_budget: Optional[int] = None,
    n_workers: Optional[int] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> ShardedReverseTopKIndex:
    """Build a sharded index shard-by-shard, without a monolithic merge.

    The exact hub proximity matrix is computed once; then each contiguous
    node range is built in turn — non-hub sources through the propagation
    kernel (optionally on ``n_workers`` process-pool workers, reusing the
    parallel shard build of :func:`~repro.core.lbi.build_index_parallel`'s
    worker functions), hub nodes from their exact top-K proximities — and,
    whenever a ``memory_budget`` is given, written straight to the layout
    before the next range starts, so peak build memory is one shard plus the
    hub matrix.  The backing is then decided from the sealed layout's
    *recorded* total (exactly :meth:`ShardedReverseTopKIndex.load`'s rule):
    an index that fits the budget is materialised back into RAM, one that
    does not stays memmap-backed.

    The kernel is bitwise deterministic per source, so the resulting shards
    hold exactly the states (and columnar values) a serial
    :func:`~repro.core.lbi.build_index` would produce for the same range.

    ``progress`` fires once per completed shard with ``(done_nodes, total)``.
    """
    from ..utils.timer import Timer

    matrix, n, params, hubs = _resolve_build_inputs(
        graph, params, hubs, transition, None
    )
    with Timer() as timer:
        hub_matrix, hub_deficit, hub_top_k = _compute_hub_matrix(matrix, hubs, params)
        hub_mask = hubs.mask(n)
        boundaries = shard_boundaries(n, n_shards)
        ranges = list(zip(boundaries[:-1], boundaries[1:]))

        # State sizes are unknown until the build runs, so a budgeted build
        # always streams to the layout first and decides RAM vs memmap from
        # the *recorded* total afterwards — the exact rule :meth:`load`
        # applies, so a cold build and a warm start of the same layout can
        # never resolve the same budget to opposite backings.  A directory
        # without a budget means "build in RAM but archive the layout".
        budgeted = memory_budget is not None
        if budgeted:
            target = _require_directory(directory, memory_budget)
        else:
            target = Path(directory) if directory is not None else None
        if target is not None:
            target.mkdir(parents=True, exist_ok=True)

        def assemble(start: int, stop: int, built: Dict[int, NodeState]) -> List[NodeState]:
            states: List[NodeState] = []
            for node in range(start, stop):
                if hub_mask[node]:
                    state = initial_node_state(node, True)
                    state.lower_bounds = hub_top_k[int(node)].copy()
                else:
                    state = built[node]
                states.append(state)
            return states

        mass_of = lambda state: effective_state_residual_mass(  # noqa: E731
            state, hubs, hub_deficit
        )
        shards: List[IndexShard] = []
        done = 0

        def finish_shard(ordinal: int, start: int, stop: int, shard: IndexShard) -> None:
            nonlocal done
            if target is not None:
                shard.write(target, ordinal)
                if budgeted:
                    # Stream out-of-core: keep only the lazy view; whether
                    # the finished index fits the budget is decided from the
                    # sealed layout's recorded total below.
                    shard = IndexShard.from_layout(
                        target, ordinal, int(start), int(stop), params.capacity
                    )
            shards.append(shard)
            done += stop - start
            if progress is not None:
                progress(done, n)

        # Non-scalar backends spill converged columns straight into flat
        # arrays (no per-node NodeState objects on the build path); the
        # scalar reference backend keeps the object pipeline.
        columnar = params.backend != "scalar"

        def make_shard(start: int, stop: int, part) -> IndexShard:
            """A shard from one range's worker output (collected or objects)."""
            start, stop = int(start), int(stop)
            if not columnar:
                states = assemble(start, stop, dict(zip(*part)))
                return IndexShard.from_states(
                    start, stop, params.capacity, states, mass_of
                )
            store = assemble_store(
                start, stop, params.capacity, [part], hub_mask, hub_top_k
            )
            return IndexShard.from_store(
                start, stop, params.capacity, store,
                store.column_masses(hubs, hub_deficit),
            )

        source_lists = [
            [node for node in range(start, stop) if not hub_mask[node]]
            for start, stop in ranges
        ]
        if n_workers is not None and n_workers > 1:
            pool = ProcessPoolExecutor(
                max_workers=n_workers,
                initializer=_init_shard_worker,
                initargs=(matrix, hub_mask, params, hubs, hub_matrix),
            )
            run, worker = pool.map, _collect_shard if columnar else _bca_shard
        else:
            pool = contextlib.nullcontext()
            kernel = PropagationKernel(
                matrix, hub_mask, params, hubs=hubs, hub_matrix=hub_matrix
            )

            def worker(sources: List[int]):
                """In-process twin of the pool's shard workers."""
                if not columnar:
                    return sources, kernel.run(sources)
                sink = StateArraysSink(params.capacity)
                kernel.run(sources, sink=sink)
                return sink.collected()

            run = map
        with pool:
            for (start, stop), part in zip(ranges, run(worker, source_lists)):
                finish_shard(len(shards), start, stop, make_shard(start, stop, part))

    sharded = ShardedReverseTopKIndex(
        params,
        hubs,
        hub_matrix,
        hub_deficit,
        shards,
        build_seconds=timer.elapsed,
        directory=target,
    )
    if target is not None:
        # Seal the layout: the per-shard files streamed out above become
        # loadable only once the meta archive lands (written last, atomically).
        sharded._write_meta(target)
        if budgeted and _resolve_backing(sharded.total_bytes(), memory_budget) == "ram":
            # The finished index fits the budget after all: serve it from
            # RAM (the layout stays on disk for the next warm start).
            sharded._materialize_all()
    return sharded


# ----------------------------------------------------------------------- #
# the query router
# ----------------------------------------------------------------------- #
class ShardedReverseTopKEngine(ReverseTopKEngine):
    """Algorithm 4 over a :class:`ShardedReverseTopKIndex`.

    PMPN (the exact proximities to the query) runs once, globally; the
    vectorized scan then visits each shard's columnar slice — sequentially,
    or fanned across a thread pool when ``scan_workers > 1`` (the scan phase
    is pure reads over disjoint slices, and the NumPy kernels release the
    GIL).  Undecided candidates refine through the inherited per-node
    pipeline, whose index accesses route to the owning shard.

    Answers, statistics counters and refinement write-backs are bit-identical
    to the monolithic :class:`~repro.core.query.ReverseTopKEngine` over the
    equivalent unpartitioned index (property-tested).
    """

    def __init__(
        self,
        transition: sp.spmatrix,
        index: ShardedReverseTopKIndex,
        *,
        scan_workers: int = 0,
        scan_precision: str = "float64",
    ) -> None:
        self.scan_workers = check_non_negative_int(scan_workers, "scan_workers")
        self._scan_pool: Optional[ThreadPoolExecutor] = None
        self._scan_pool_lock = threading.Lock()
        super().__init__(transition, index, scan_precision=scan_precision)

    @classmethod
    def build(
        cls,
        graph: Union[DiGraph, sp.spmatrix],
        params: Optional[IndexParams] = None,
        *,
        transition: Optional[sp.spmatrix] = None,
        hubs: Optional[HubSet] = None,
        n_shards: int = 4,
        directory: Optional[PathLike] = None,
        memory_budget: Optional[int] = None,
        n_workers: Optional[int] = None,
        scan_workers: int = 0,
        scan_precision: str = "float64",
    ) -> "ShardedReverseTopKEngine":
        """Build a sharded index for ``graph`` and wrap it in a router."""
        if isinstance(graph, DiGraph):
            from ..graph.transition import transition_matrix

            matrix = transition if transition is not None else transition_matrix(graph)
        else:
            matrix = graph if transition is None else transition
        index = build_sharded_index(
            graph,
            params,
            hubs=hubs,
            transition=matrix,
            n_shards=n_shards,
            directory=directory,
            memory_budget=memory_budget,
            n_workers=n_workers,
        )
        return cls(
            matrix, index, scan_workers=scan_workers, scan_precision=scan_precision
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def rebind(
        self,
        transition: sp.spmatrix,
        index: Optional[ShardedReverseTopKIndex] = None,
    ) -> None:
        """Re-derive transition caches, preserving the scan-pool setting."""
        workers = self.scan_workers
        precision = self.scan_precision
        self.close()
        self.__init__(
            transition,
            index if index is not None else self.index,
            scan_workers=workers,
            scan_precision=precision,
        )

    def close(self) -> None:
        """Shut down the per-shard scan pool (idempotent)."""
        with self._scan_pool_lock:
            if self._scan_pool is not None:
                self._scan_pool.shutdown(wait=True)
                self._scan_pool = None

    def __enter__(self) -> "ShardedReverseTopKEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _ensure_scan_pool(self) -> ThreadPoolExecutor:
        with self._scan_pool_lock:
            if self._scan_pool is None:
                self._scan_pool = ThreadPoolExecutor(max_workers=self.scan_workers)
            return self._scan_pool

    # ------------------------------------------------------------------ #
    # pickling (process-pool workers)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """Ship the transition, the sharded index, and the pool setting."""
        return {
            "transition": self.transition,
            "index": self.index,
            "scan_workers": self.scan_workers,
            "scan_precision": self.scan_precision,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(
            state["transition"],
            state["index"],
            scan_workers=state["scan_workers"],
            scan_precision=state.get("scan_precision", "float64"),
        )

    # ------------------------------------------------------------------ #
    # the per-shard scan
    # ------------------------------------------------------------------ #
    def _columnar_decisions(self, proximity_to_q, k, tally, jit):
        """The columnar stages routed across shards; refinement stays global.

        Per-shard stages are column-local, so evaluating them slice by slice
        yields the monolithic scan's floats; shard outcomes concatenate in
        range order, reproducing the monolithic ascending candidate order —
        and therefore identical refinement trajectories, write-back order,
        version bumps and statistics counters.  Precision screening and the
        compiled scan compose: each shard scans its own float32 plane (the
        memmapped ``.lower32.npy`` when the layout carries one) through the
        same shared stage pipeline the monolithic engine uses.
        """
        shards = self.index.shards

        def scan(shard: IndexShard):
            return _scan_shard(
                shard,
                proximity_to_q,
                k,
                screened=self.scan_precision == "float32",
                workspace=self._bounds_workspace,
                jit=jit,
            )

        if self.scan_workers > 1 and len(shards) > 1:
            outcomes = list(self._ensure_scan_pool().map(scan, shards))
        else:
            outcomes = [scan(shard) for shard in shards]
        exact_parts: List[np.ndarray] = []
        candidate_parts: List[np.ndarray] = []
        hit_parts: List[np.ndarray] = []
        traced = current_span() is not None
        for shard, outcome in zip(shards, outcomes):
            start, exact_local, cand_local, hits, n_pruned, seconds = outcome
            tally.n_pruned += n_pruned
            if traced:
                tally.shard_records.append(
                    (start, shard.stop - shard.start, seconds, int(n_pruned))
                )
            exact_parts.append(exact_local + start)
            candidate_parts.append(cand_local + start)
            hit_parts.append(hits)
        return (
            np.concatenate(exact_parts),
            np.concatenate(candidate_parts),
            np.concatenate(hit_parts),
        )


def _scan_shard(
    shard: IndexShard,
    proximity_to_q: np.ndarray,
    k: int,
    *,
    screened: bool = False,
    workspace=None,
    jit=None,
) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray, int, float]:
    """Prune / exact-shortcut / batched-bound stages over one shard's slice.

    Returns ``(start, exact_local, candidates_local, hits, n_pruned,
    seconds)`` with local (shard-relative) node offsets; pure reads, safe to
    fan across threads (the bounds workspace is thread-local).  Delegates to
    the shared :func:`~repro.core.query.columnar_stage_decisions` pipeline,
    so decisions are bit-identical to the monolithic scan in every
    configuration.
    """
    scan_start = time.perf_counter()
    local = proximity_to_q[shard.start : shard.stop]
    exact_local, candidates_local, hits, n_pruned = columnar_stage_decisions(
        local,
        shard.columns,
        k,
        lower32=shard.lower32() if screened else None,
        screen=shard.screen_bounds(k) if screened and jit is None else None,
        workspace=workspace,
        jit=jit,
    )
    seconds = time.perf_counter() - scan_start
    return shard.start, exact_local, candidates_local, hits, n_pruned, seconds
