"""Partitioned index shards with a query router (out-of-core serving).

The monolithic :class:`~repro.core.index.ReverseTopKIndex` keeps the whole
``(K, n)`` columnar state — plus every node's flattened BCA state — resident
in one process.  That caps the graph size a single serving process can hold
well short of the ROADMAP's "millions of users" target.  This module partitions
the index the same way PR 4 already shards its *construction*:

``IndexShard``
    One contiguous node range ``[start, stop)`` holding that range's slice of
    the columnar views (lower-bound matrix columns, effective-residual-mass
    vector, exactness mask) and a
    :class:`~repro.core.statestore.ColumnarStateStore` over its node states —
    the same container the monolithic index owns.  A shard is backed either

    * **in RAM** — writable column arrays and a store over heap arrays, or
    * **by the on-disk layout** — the columnar slices and the store's
      flattened state arrays are ``np.memmap`` views over per-shard ``.npy``
      files opened read-only (the store lazily, on first state access), and
      one node's state is read by slicing its rows out of the mapped arrays.

    The on-disk layout is **immutable**: a refinement write-back promotes the
    owning shard's columnar arrays into RAM (copy-on-write) instead of
    mutating files that are content-addressed by the snapshot layer, and the
    written state lands in the store's overlay.

``ShardedReverseTopKIndex``
    The partitioned index: global hub data (hub set, hub proximity matrix,
    rounding deficits) shared across ``P`` contiguous shards, plus the same
    node-level API the query engine consumes on the monolithic index
    (``state`` / ``state_arrays`` / ``set_state`` / ``states`` /
    ``apply_updates`` / ``version``).  Reads and write-backs route to the
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
    Constructs the sharded layout directly — each shard's store is built
    (optionally on PR 4's process-pool shard workers) and written out before
    the next shard starts, so peak memory is one shard plus the hub matrix
    and there is **no monolithic merge step**.

Bit-identity argument, in one place: the staircase bound, prune comparison
and exactness shortcut are all column-local (no cross-node arithmetic), so
evaluating them on a column slice yields the same floats as on the full
matrix; per-shard candidate lists concatenated in shard order reproduce the
monolithic ascending candidate order; and refinement operates on the same
flat state segments through the same kernel.  ``float64`` round-trips
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
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union
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
    _as_arrays,
    atomic_write,
    effective_state_residual_mass,
    params_from_arrays,
    params_to_arrays,
    resolve_hub_components,
    storage_breakdown,
)
from .lbi import (
    _collect_shard,
    _compute_hub_matrix,
    _init_shard_worker,
    _resolve_build_inputs,
)
from .propagation import PropagationKernel
from .query import ReverseTopKEngine, columnar_stage_decisions
from .statestore import STATE_ARRAY_NAMES, ColumnarStateStore, assemble_store

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

#: Flattened per-shard state arrays (the columnar state store's layout).
#: Each is persisted as its own ``.npy`` file so shards can memmap them and
#: read *single nodes* by slicing — loading a whole shard's states because
#: one candidate needed refinement would erode the memory budget.
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

    Constructed through :meth:`from_store` (in-RAM backing) or
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
        # The range's states (None = a memmap shard's store, not yet opened).
        self._store: Optional[ColumnarStateStore] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_store(
        cls,
        start: int,
        stop: int,
        capacity: int,
        store: ColumnarStateStore,
        mass: np.ndarray,
    ) -> "IndexShard":
        """In-RAM shard adopting a columnar state store.

        The store holds exactly the representation :meth:`write` persists
        and :meth:`from_layout` memmaps back.  ``mass`` is the per-node
        effective residual mass (:meth:`ColumnarStateStore.column_masses`).
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
        mass = np.array(mass, dtype=np.float64)  # private: write-backs mutate it
        if mass.shape != (shard.n_nodes,):
            raise InvalidParameterError(
                f"shard [{start}, {stop}) needs {shard.n_nodes} masses, "
                f"got shape {mass.shape}"
            )
        shard._store = store
        shard._lower = store.lower_matrix()
        shard._mass = mass
        shard._exact = store.is_exact_mask()
        return shard

    @classmethod
    def from_layout(
        cls, directory: PathLike, ordinal: int, start: int, stop: int, capacity: int
    ) -> "IndexShard":
        """Memmap shard over the immutable layout files in ``directory``.

        Nothing is opened here; columnar memmaps and the state store open
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

    @property
    def store(self) -> ColumnarStateStore:
        """The range's state store (local ids), opened lazily on memmap shards.

        The arrays stay memory-mapped (O(1) resident memory): a state read
        slices one node's rows out of them, so only the pages a refinement
        candidate actually touches ever become resident — states are lazy
        *per node*, not per shard.
        """
        if self._store is None:
            stem = _shard_stem(self.ordinal)
            try:
                self._store = ColumnarStateStore(
                    {
                        name: np.load(
                            self.directory / f"{stem}.states.{name}.npy", mmap_mode="r"
                        )
                        for name in _STATE_ARRAY_NAMES
                    },
                    self.capacity,
                )
            except (OSError, ValueError) as exc:
                raise SerializationError(
                    f"cannot open shard states under {self.directory}: {exc}"
                ) from exc
        return self._store

    def set_state(self, local: int, state: StateArrays, mass: float) -> None:
        """Store a state write-back and refresh its column.

        The state lands in the store's overlay; memmap shards promote their
        columnar arrays to RAM first (the disk layout is immutable).
        """
        arrays = self.store.set_state(local, state)
        self._promote_columns()
        self._write_column(local, arrays, mass)

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

    def _write_column(self, local: int, state: StateArrays, mass: float) -> None:
        self._lower[:, local] = state.lower_bounds
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

        A lazy shard answers by peeking at the tails of the memmapped index
        pointers — size accounting (the layout meta records it) must not
        force the whole shard resident.
        """
        return self.store.stored_entries()

    def resident_bytes(self) -> int:
        """Rough bytes this shard currently keeps in RAM (not on disk)."""
        total = 0
        if self._lower is not None and (
            self.backing == "ram" or self._lower.flags.writeable
        ):
            total += self._lower.nbytes + self._mass.nbytes + self._exact.nbytes
        if self._lower32 is not None and not isinstance(self._lower32, np.memmap):
            total += self._lower32.nbytes
        if self._store is not None:
            # Memmapped state arrays are backed by the page cache, not the
            # process heap; only heap arrays and overlay rows count.
            total += self._store.resident_bytes()
        return total

    def write(self, directory: PathLike, ordinal: int) -> None:
        """Persist this shard's columnar slices and state arrays (atomic)."""
        directory = Path(directory)
        stem = _shard_stem(ordinal)
        columns = self.columns
        lower = np.ascontiguousarray(columns.lower, dtype=np.float64)
        mass = np.ascontiguousarray(columns.residual_mass, dtype=np.float64)
        exact = np.ascontiguousarray(columns.is_exact, dtype=bool)
        # The store's flattened arrays *are* the persisted representation
        # (overlay writes merged in): no per-node object is ever built.
        arrays = self.store.to_arrays()
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
            # A clean store still over the layout's memmaps never ships
            # (np.memmap pickles by value): the receiver reopens them
            # lazily.  One carrying writes — in its overlay, or merged into
            # heap arrays by an earlier pickle — ships through the store's
            # own ``__getstate__`` as flat arrays.  Columns ship only once
            # promoted — a promoted shard's RAM copies are the
            # authoritative values.
            store = self._store
            if (
                store is not None
                and not store.overlay
                and all(isinstance(a, np.memmap) for a in store.arrays.values())
            ):
                state["_store"] = None
            if not self.is_promoted:
                state["_lower"] = None
                state["_mass"] = None
                state["_exact"] = None
        return state

    def __repr__(self) -> str:
        return (
            f"IndexShard([{self.start}, {self.stop}), backing={self.backing!r}"
            f"{', promoted' if self.is_promoted else ''})"
        )


class ShardedReverseTopKIndex:
    """A reverse top-k index partitioned into contiguous node-range shards.

    Exposes the node-level surface the query engine and the dynamic
    maintainer consume on :class:`~repro.core.index.ReverseTopKIndex`
    (``state`` / ``state_arrays`` / ``set_state`` / ``states`` /
    ``apply_updates`` / ``kth_lower_bounds`` / ``version``), routing each
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
        """``node``'s state as a detached :class:`NodeState`, by value."""
        shard, local = self.shard_of(node)
        return shard.store.state(local)

    def state_arrays(self, node: int) -> StateArrays:
        """``node``'s state as flat segments, routed to its shard's store."""
        shard, local = self.shard_of(node)
        return shard.store.state_arrays(local)

    def set_state(self, node: int, state: "StateArrays | NodeState") -> None:
        """Persist a state write-back into the owning shard (version bump)."""
        shard, local = self.shard_of(node)
        state = _as_arrays(state)
        shard.set_state(local, state, self.state_residual_mass(state))
        self._version += 1

    def states(self) -> Iterable[Tuple[int, NodeState]]:
        """Iterate ``(node, state)`` pairs (by-value views) across shards."""
        for shard in self.shards:
            for local, state in enumerate(shard.store.iter_states()):
                yield shard.start + local, state

    def state_residual_mass(self, state: StateArrays) -> float:
        """Effective residual mass of a (possibly detached) state."""
        return effective_state_residual_mass(state, self.hubs, self.hub_deficit)

    def effective_residual_mass(self, node: int) -> float:
        """Residue mass of ``node``'s state, including the rounding deficit."""
        return self.state_residual_mass(self.state_arrays(node))

    def apply_updates(
        self,
        states: Dict[int, StateArrays],
        *,
        hub_matrix: Optional[sp.spmatrix] = None,
        hub_deficit: Optional[np.ndarray] = None,
    ) -> None:
        """Targeted maintenance writes with a single version bump.

        The sharded twin of :meth:`ReverseTopKIndex.apply_updates`: each
        rewritten node routes to its owning shard (memmap shards promote
        copy-on-write), untouched shards and nodes stay lazy,
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

    def adopt(self, fresh: "ShardedReverseTopKIndex") -> None:
        """Swap in another sharded index's components, in place.

        The dynamic maintainer's full-rebuild escape hatch builds a fresh
        sharded index for the new graph and splices it into the *live*
        object, so every holder of a reference (engine, serving façade)
        keeps observing the same index and the same monotonic version
        counter — bumped exactly once, like
        :meth:`ReverseTopKIndex.replace_contents`.
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
        masses = index.columns.residual_mass
        # Merge the index's overlay once, not once per shard's ``rows()``.
        merged = ColumnarStateStore(index.store.to_arrays(), index.capacity)
        shards = [
            IndexShard.from_store(
                int(start),
                int(stop),
                index.capacity,
                merged.rows(int(start), int(stop)),
                masses[start:stop],
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
        return ReverseTopKIndex(
            self.params,
            self.hubs,
            self.hub_matrix,
            self.hub_deficit,
            ColumnarStateStore.concatenate([shard.store for shard in self.shards]),
            build_seconds=self.build_seconds,
        )

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

        Each shard's flattened state arrays (overlay writes merged) and
        columns are copied into RAM wholesale — states stay lazy *per node*
        and no ``NodeState`` objects are created.
        """
        self.shards = [
            IndexShard.from_store(
                shard.start,
                shard.stop,
                self.capacity,
                shard.store.rows(0, shard.n_nodes),
                shard.columns.residual_mass,
            )
            for shard in self.shards
        ]
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

    matrix, n, params, hubs = _resolve_build_inputs(graph, params, hubs, transition)
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

        def make_shard(start: int, stop: int, part) -> IndexShard:
            """A shard from one range's collected segments."""
            start, stop = int(start), int(stop)
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
            run, worker = pool.map, _collect_shard
        else:
            pool = contextlib.nullcontext()
            # In-process twin of the pool's shard workers.
            run, worker = map, PropagationKernel(
                matrix, hub_mask, params, hubs=hubs, hub_matrix=hub_matrix
            ).run
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
    def _columnar_decisions(self, proximity_to_q, k, tally):
        """The columnar stages routed across shards; refinement stays global.

        Per-shard stages are column-local, so evaluating them slice by slice
        yields the monolithic scan's floats; shard outcomes concatenate in
        range order, reproducing the monolithic ascending candidate order —
        and therefore identical refinement trajectories, write-back order,
        version bumps and statistics counters.  Under float32 screening each
        shard scans its own float32 plane (the memmapped ``.lower32.npy``
        when the layout carries one) through the same shared stage pipeline
        the monolithic engine uses.
        """
        shards = self.index.shards

        def scan(shard: IndexShard):
            return _scan_shard(
                shard,
                proximity_to_q,
                k,
                screened=self.scan_precision == "float32",
                workspace=self._bounds_workspace,
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
        screen=shard.screen_bounds(k) if screened else None,
        workspace=workspace,
    )
    seconds = time.perf_counter() - scan_start
    return shard.start, exact_local, candidates_local, hits, n_pruned, seconds
