"""The reverse top-k index (§4.1): ``P ≥ 1`` contiguous node-range shards.

The paper's index ``I = (P̂, R, W, S, P_H)`` is stored as global hub data —
the hub set, the rounded hub proximity matrix ``P_H`` and its rounding
deficits — plus ``P`` contiguous shards, each holding its node range's slice
of everything per-node.  ``P = 1`` (the default) is one in-RAM shard over all
nodes; larger ``P`` and a ``memory_budget`` put the index out of core.

``IndexShard``
    One contiguous node range ``[start, stop)`` holding that range's slice
    of the columnar views (lower-bound matrix columns, effective-residual-mass
    vector, exactness mask) and a
    :class:`~repro.core.statestore.ColumnarStateStore` over its node states,
    which borrows the lower-bound columns — ``P̂`` is held once per shard.
    A shard is backed either

    * **in RAM** — writable column arrays and a store over heap arrays, or
    * **by the on-disk layout** — the columnar slices and the store's
      flattened state arrays are ``np.memmap`` views over per-shard ``.npy``
      files opened read-only (the store lazily, on first state access), and
      one node's state is read by slicing its rows out of the mapped arrays.

    The on-disk layout is **immutable**: a refinement write-back promotes the
    owning shard's columnar arrays into RAM (copy-on-write) instead of
    mutating files that are content-addressed by the snapshot layer, and the
    written state lands in the store's overlay.

``ReverseTopKIndex``
    The index: the node-level API the query engine and the dynamic
    maintainer consume (``state`` / ``state_arrays`` / ``set_state`` /
    ``states`` / ``apply_updates`` / ``kth_lower_bounds`` / ``version``),
    each call routed to the owning shard.  The mutation version is
    **global** — one counter, bumped once per write-back, which the serving
    layer's version-keyed cache relies on.  :meth:`ReverseTopKIndex.persist`
    and :meth:`ReverseTopKIndex.load` write and read the one on-disk layout:
    per-shard ``.npy`` files first, the ``sharded-meta.npz`` archive last.

``columnar_stage_decisions``
    Algorithm 4's columnar stages — whole-array prune, exact shortcut,
    batched staircase bound — over one shard's float64 slice, on certified
    intervals of ``p_u(q)``; the engine
    (:class:`~repro.core.query.ReverseTopKEngine`) runs it shard by shard,
    serially, each call advancing the query's shared PMPN state while one of
    its tests is open.

``build_index``
    Algorithm 1 end to end: the exact hub proximity matrix once, then each
    node range in turn — non-hub sources through the propagation kernel
    (optionally on a process pool), hub rows from their exact top-K — and,
    under a ``memory_budget``, each shard written to the layout before the
    next starts, so peak build memory is one shard plus the hub matrix.

Sharding invariance, in one place: the prune comparison, the exactness
shortcut and the staircase bound are all column-local (no cross-node
arithmetic), so evaluating them slice by slice yields the same floats as one
whole-array pass; per-shard candidates concatenated in range order are the
ascending candidate order; refinement operates on the same flat state
segments through the same kernel; and the kernel's trajectory per source is
bitwise independent of the sources sharing its chunk.  So answers, every
statistics counter, write-backs and versions are the same for every ``P``,
and ``float64`` round-trips through ``.npy``/``.npz`` files are bitwise exact,
so memmap-backed shards scan the values an in-RAM shard holds.
"""

from __future__ import annotations

from collections import Counter
from concurrent.futures import ProcessPoolExecutor
import contextlib
import functools
import itertools
import os
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union
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
from ..utils.timer import StageTimer
from .bounds import BoundsWorkspace, kth_upper_bounds_batch
from .config import IndexParams
from .hubs import HubSet
from .index import (
    _INDEX_BYTES,
    _VALUE_BYTES,
    ColumnarView,
    StateArrays,
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
    _emit_build_metrics,
    _init_shard_worker,
    _resolve_build_inputs,
)
from .pmpn import PMPNState, PointProximities
from .propagation import BuildReport, PropagationKernel
from .statestore import STATE_ARRAY_NAMES, ColumnarStateStore, assemble_store

PathLike = Union[str, os.PathLike]

#: On-disk layout format version (bumped on incompatible layout changes).
#: Version 2 keeps ``P̂`` once per shard (``lower.npy``); a version-1 layout
#: does not load, which the snapshot layer treats as a miss and rebuilds.
_LAYOUT_VERSION = 2

#: Name of the layout's global metadata archive.  It is written *last*:
#: a directory without a readable meta archive is a torn layout and is
#: treated as a snapshot miss, never loaded partially.
_META_NAME = "sharded-meta.npz"


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


#: The files of one shard in the layout, after its stem.
_SHARD_SUFFIXES = ("lower.npy", "mass.npy", "exact.npy") + tuple(
    f"states.{name}.npy" for name in STATE_ARRAY_NAMES
)


def remove_stale_layout_files(directory: PathLike, n_shards: int) -> List[Path]:
    """Delete the files in ``directory`` that a ``n_shards`` layout does not write.

    A layout rebuilt in place over an older or torn one (a changed layout
    version, a different shard count) would otherwise keep the old files
    beside the new ones for good.  Another writer's in-flight temp files
    (``*.tmp-*``) are left alone.  Returns the removed paths.
    """
    directory = Path(directory)
    current = {_META_NAME} | {
        f"{_shard_stem(ordinal)}.{suffix}"
        for ordinal in range(n_shards)
        for suffix in _SHARD_SUFFIXES
    }
    removed = []
    for path in sorted(directory.iterdir()):
        if path.is_file() and path.name not in current and ".tmp-" not in path.name:
            path.unlink()
            removed.append(path)
    return removed


# --------------------------------------------------------------------- #
# the columnar stage pipeline (one shard's slice)
# --------------------------------------------------------------------- #
def columnar_stage_decisions(
    proximity: Union[np.ndarray, PMPNState],
    columns: ColumnarView,
    k: int,
    *,
    start: int = 0,
    tighten: Optional[Callable[[], None]] = None,
    workspace: Optional[BoundsWorkspace] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Prune / exact-shortcut / staircase decisions over one columnar slice.

    The one decision pipeline of Algorithm 4's scan, run over each shard's
    slice ``[start, start + n)`` of the nodes in turn.  ``proximity`` is
    either the values ``p_*(q)`` of all nodes as an array, every test made on
    them, or a :class:`~repro.core.pmpn.PMPNState`, every test made on its
    certified interval ``[lower, upper]``: with ``L`` the k-th lower bound and
    ``U`` the staircase upper bound, a node is pruned when ``upper < L``,
    survives when ``lower >= L``, hits when ``lower >= U`` and misses when
    ``upper < U``.  While a test is open, ``tighten()`` (default: the
    state's own ``advance``) runs one more PMPN round, and only the open
    nodes are tested again; once the state is ``at_floor``, an open test is
    decided on PMPN's result and counted.  Survival is settled for the whole
    slice first, so the staircase runs once, over all candidates.

    Returns ``(exact_idx, candidate_idx, hits, n_pruned, n_floor)`` with
    ascending slice-local node indices: nodes accepted by the exact
    shortcut, undecided-or-hit candidates, the boolean hit mask aligned with
    ``candidate_idx``, the prune count and the floor decisions.
    """
    if isinstance(proximity, np.ndarray):
        proximity = PointProximities(proximity)
    if tighten is None:
        tighten = proximity.advance
    n_floor = 0

    def at_least(thresholds: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """Whether ``p_u(q) >= thresholds`` at slice-local ``nodes``, tightening while any is open."""
        nonlocal n_floor
        if nodes.size == columns.residual_mass.shape[0]:  # the whole slice
            lower, upper = proximity.interval(slice(start, start + nodes.size))
        else:
            lower, upper = proximity.interval(nodes + start)
        holds = lower >= thresholds
        pending = np.flatnonzero(~holds & (upper >= thresholds))
        while pending.size:
            at = nodes[pending] + start
            if proximity.at_floor:
                n_floor += pending.size
                while not proximity.settled:
                    tighten()
                holds[pending] = proximity.proximities[at] >= thresholds[pending]
                break
            tighten()
            lower, upper = proximity.interval(at)
            bound = thresholds[pending]
            now_holds = lower >= bound
            holds[pending[now_holds]] = True
            pending = pending[~now_holds & (upper >= bound)]
        return holds

    survives = at_least(
        np.asarray(columns.lower[k - 1]), np.arange(columns.residual_mass.shape[0])
    )
    n_pruned = int(survives.size - np.count_nonzero(survives))
    is_exact = np.asarray(columns.is_exact)
    exact_idx = np.flatnonzero(survives & is_exact)
    candidates = np.flatnonzero(survives & ~is_exact)
    if candidates.size:
        # Gather only the k rows the staircase needs: the plane holds K >= k
        # rows and a full-column gather would touch (and copy) all of them.
        bounds = kth_upper_bounds_batch(
            columns.lower[:k, candidates],
            columns.residual_mass[candidates],
            k,
            workspace=workspace,
        )
        hits = at_least(bounds, candidates)
    else:
        hits = np.zeros(0, dtype=bool)
    return exact_idx, candidates, hits, n_pruned, n_floor


class IndexShard:
    """One contiguous node-range slice of the reverse top-k index.

    Constructed through :meth:`from_store` (in-RAM backing) or
    :meth:`from_layout` (memmap backing over the immutable on-disk layout).
    Node indices at this level are *local* (``0 .. stop - start``); the
    owning :class:`ReverseTopKIndex` translates.
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
        # The three arrays as one view, built on first use (every scan reads
        # it) and dropped whenever the arrays are replaced.
        self._view: Optional[ColumnarView] = None
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
        and :meth:`from_layout` memmaps back, and its lower-bound plane
        becomes the shard's columns (adopted, not copied).  ``mass`` is the
        per-node effective residual mass
        (:meth:`ColumnarStateStore.column_masses`).
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
        shard._lower = store.lower
        shard._mass = mass
        shard._exact = store.is_exact_mask()
        return shard

    @classmethod
    def from_layout(
        cls, directory: PathLike, ordinal: int, start: int, stop: int, capacity: int
    ) -> "IndexShard":
        """Memmap shard over the immutable layout files in ``directory``.

        Nothing is opened here; columnar memmaps and the state store open
        lazily on first access, so opening an index over a large layout is
        O(P) metadata work.
        """
        shard = cls(start, stop, capacity)
        shard.backing = "memmap"
        shard.directory = Path(directory)
        shard.ordinal = int(ordinal)
        for suffix in _SHARD_SUFFIXES:
            path = shard.directory / f"{_shard_stem(ordinal)}.{suffix}"
            if not path.exists():
                raise SerializationError(f"index layout is missing {path}")
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
        view = self._view
        if view is None:
            self._ensure_columns()
            view = self._view = ColumnarView(
                lower=self._lower, residual_mass=self._mass, is_exact=self._exact
            )
        return view

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

    @property
    def store(self) -> ColumnarStateStore:
        """The range's state store (local ids), opened lazily on memmap shards.

        The arrays stay memory-mapped (O(1) resident memory): a state read
        slices one node's rows out of them, so only the pages a refinement
        candidate actually touches ever become resident — states are lazy
        *per node*, not per shard.  The store's lower-bound plane is this
        shard's column array.
        """
        if self._store is None:
            self._ensure_columns()
            stem = _shard_stem(self.ordinal)
            try:
                self._store = ColumnarStateStore(
                    {
                        name: np.load(
                            self.directory / f"{stem}.states.{name}.npy", mmap_mode="r"
                        )
                        for name in STATE_ARRAY_NAMES
                    },
                    self._lower,
                )
            except (OSError, ValueError) as exc:
                raise SerializationError(
                    f"cannot open shard states under {self.directory}: {exc}"
                ) from exc
        return self._store

    def set_state(self, local: int, state: StateArrays, mass: float) -> None:
        """Store a state write-back and refresh its column.

        Memmap shards promote their columnar arrays to RAM first (the disk
        layout is immutable); the bounds land in the column, the rest of the
        state in the store's overlay.
        """
        self._promote_columns()
        self._write_column(local, state, mass)
        self.store.set_state(local, state)

    def _promote_columns(self) -> None:
        """Copy-on-write: make the columnar arrays private and writable."""
        self._ensure_columns()
        if not self._lower.flags.writeable:
            self._lower = np.array(self._lower, dtype=np.float64, copy=True)
            self._mass = np.array(self._mass, dtype=np.float64, copy=True)
            self._exact = np.array(self._exact, dtype=bool, copy=True)
            self._view = None
            if self._store is not None:
                self._store.lower = self._lower

    def _write_column(self, local: int, state: StateArrays, mass: float) -> None:
        # Exactly K values, zero-padded or truncated.
        count = min(self.capacity, state.lower_bounds.size)
        self._lower[:count, local] = state.lower_bounds[:count]
        self._lower[count:, local] = 0.0
        self._mass[local] = mass
        self._exact[local] = state.is_exact

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
        atomic_write(
            directory / f"{stem}.mass.npy", lambda handle: np.save(handle, mass)
        )
        atomic_write(
            directory / f"{stem}.exact.npy", lambda handle: np.save(handle, exact)
        )
        for name in STATE_ARRAY_NAMES:
            array = arrays[name]
            atomic_write(
                directory / f"{stem}.states.{name}.npy",
                lambda handle, array=array: np.save(handle, array),
            )

    # ------------------------------------------------------------------ #
    # pickling (the rollover clone)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """Ship paths for clean memmap shards, arrays for everything else.

        A clean disk-backed shard pickles to its directory reference only —
        the rollover clone reopens the memmaps lazily and shares the page
        cache instead of receiving a full copy of the arrays.
        """
        state = self.__dict__.copy()
        # The view is derived; receivers rebuild it lazily.
        state["_view"] = None
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


class ReverseTopKIndex:
    """The reverse top-k index over all nodes of a graph, in ``P ≥ 1`` shards.

    Instances are produced by :func:`build_index` or :meth:`load`; they are
    mutable because Algorithm 4 refines node states during query evaluation
    and (optionally) persists the refinement.  Every node-level call routes
    to the owning shard.  Hub data is global — every shard's states reference
    the same hub proximity matrix — and so is the mutation :attr:`version`.
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
        #: Per-phase cost breakdown of the build that produced this index
        #: (a :class:`repro.core.propagation.BuildReport`); ``None`` for
        #: indexes loaded from disk or assembled by hand.
        self.build_report: Optional[BuildReport] = None
        #: Layout directory the index was written to or loaded from (``None``
        #: for a pure in-RAM index); informational — persistence always takes
        #: an explicit target.
        self.directory = directory
        self._version = 0
        if not self.shards:
            raise InvalidParameterError("an index needs at least one shard")
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
    # basic accessors
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
        """Monotonic mutation counter, bumped on every state write-back.

        The serving layer keys its result cache on ``(query, k, version)``:
        any refinement persisted through :meth:`set_state` bumps the counter,
        so cache entries computed against older index state stop matching
        and age out of the LRU.
        """
        return self._version

    @property
    def boundaries(self) -> np.ndarray:
        """``P + 1`` ascending shard-range offsets (copy)."""
        return self._boundaries.copy()

    @property
    def columns(self) -> ColumnarView:
        """The columnar view over all nodes (read-only for callers).

        With one shard this is the shard's live view; with several it is a
        concatenated copy — the scan reads each shard's own slice instead.
        """
        if len(self.shards) == 1:
            return self.shards[0].columns
        views = [shard.columns for shard in self.shards]
        return ColumnarView(
            lower=np.concatenate([np.asarray(v.lower) for v in views], axis=1),
            residual_mass=np.concatenate([np.asarray(v.residual_mass) for v in views]),
            is_exact=np.concatenate([np.asarray(v.is_exact) for v in views]),
        )

    def shard_of(self, node: int) -> Tuple[IndexShard, int]:
        """The shard owning ``node`` and the node's local offset within it."""
        node = check_node_index(node, self.n_nodes)
        ordinal = int(np.searchsorted(self._boundaries, node, side="right")) - 1
        shard = self.shards[ordinal]
        return shard, node - shard.start

    def state_arrays(self, node: int) -> StateArrays:
        """``node``'s state as flat segments (views of the store's rows)."""
        shard, local = self.shard_of(node)
        return shard.store.state_arrays(local)

    def set_state(self, node: int, state: StateArrays) -> None:
        """Persist a state write-back into the owning shard (version bump)."""
        shard, local = self.shard_of(node)
        shard.set_state(local, state, self.state_residual_mass(state))
        self._version += 1

    def state_residual_mass(self, state: StateArrays) -> float:
        """Effective residual mass of a (possibly detached) state."""
        return effective_state_residual_mass(state, self.hubs, self.hub_deficit)

    def apply_updates(
        self,
        states: Dict[int, StateArrays],
        *,
        hub_matrix: Optional[sp.spmatrix] = None,
        hub_deficit: Optional[np.ndarray] = None,
    ) -> None:
        """Targeted maintenance writes with a single version bump.

        Delta maintenance rewrites only the nodes it invalidated (plus hub
        rows): each routes to its owning shard (memmap shards promote
        copy-on-write), untouched shards and nodes stay as they are, and the
        version bumps exactly once.  The hub set itself is unchanged by
        construction; callers only leave nodes untouched whose columns the
        new hub data does not affect.
        """
        _, self.hub_matrix, self.hub_deficit = resolve_hub_components(
            self, None, hub_matrix, hub_deficit, allow_rowless=True
        )
        for node, state in states.items():
            shard, local = self.shard_of(node)
            shard.set_state(local, state, self.state_residual_mass(state))
        self._version += 1

    def adopt(self, fresh: "ReverseTopKIndex") -> None:
        """Swap in another index's components, in place.

        The dynamic maintainer's full-rebuild escape hatch builds a fresh
        index for the new graph and splices it into the *live* object, so
        every holder of a reference (engine, serving façade) keeps observing
        the same index and the same monotonic version counter — bumped
        exactly once: a freshly constructed index would restart at version 0
        and collide with cache entries keyed under the old generation.
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

    def kth_lower_bounds(self, k: int) -> np.ndarray:
        """The k-th row of ``P̂`` across all nodes — the primary pruning signal.

        ``k`` is validated against the index capacity ``K`` only: the matrix
        stores ``K`` slots per node regardless of the graph size, and slots
        beyond a node's known bounds hold the trivial lower bound ``0``.
        """
        k = check_positive_int(k, "k")
        if k > self.capacity:
            raise InvalidParameterError(
                f"k={k} exceeds the index capacity K={self.capacity}"
            )
        return np.concatenate(
            [np.asarray(shard.columns.lower[k - 1]) for shard in self.shards]
        )

    # ------------------------------------------------------------------ #
    # size accounting (Table 2)
    # ------------------------------------------------------------------ #
    def storage_bytes(self) -> Dict[str, int]:
        """Approximate storage footprint per index component, in bytes.

        Matches the accounting of Table 2: the top-K lower bound matrix, the
        sparse BCA state matrices ``R``/``W``/``S`` and the hub proximity
        matrix ``P_H`` (rounded), each entry counted as an 8-byte value plus
        an 8-byte index.
        """
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
        what the out-of-core layout saves a serving process.
        """
        hub_bytes = self.hub_matrix.nnz * (_VALUE_BYTES + _INDEX_BYTES)
        return hub_bytes + sum(shard.resident_bytes() for shard in self.shards)

    # ------------------------------------------------------------------ #
    # persistence (the on-disk layout)
    # ------------------------------------------------------------------ #
    def persist(self, directory: PathLike) -> Path:
        """Write the full layout under ``directory``.

        Per-shard files first, the global ``sharded-meta.npz`` last — a torn
        write leaves a directory without a readable meta archive, which
        :meth:`load` rejects, so readers never observe a partial layout.
        Every file is written atomically (temp file plus ``os.replace``).
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
    ) -> "ReverseTopKIndex":
        """Load a layout written by :meth:`persist` (or a directory build).

        ``memory_budget`` decides the backing exactly as at build time:
        ``None`` materialises every shard into RAM; with a budget the shards
        stay memmap-backed (lazy columns, per-node lazy states) whenever the
        recorded index size exceeds it.  A missing, torn or unreadable layout
        raises :class:`~repro.exceptions.SerializationError`.
        """
        directory = Path(directory)
        meta_path = directory / _META_NAME
        try:
            with open(meta_path, "rb") as handle, np.load(
                handle, allow_pickle=False
            ) as data:
                if int(data["layout_version"][0]) != _LAYOUT_VERSION:
                    raise SerializationError(
                        f"unsupported layout version "
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
            # BadZipFile: a truncated meta archive that still begins with the
            # zip magic — np.load raises it instead of ValueError.
            raise SerializationError(
                f"cannot load index layout from {directory}: {exc}"
            ) from exc
        shards = [
            IndexShard.from_layout(
                directory, ordinal, int(start), int(stop), params.capacity
            )
            for ordinal, (start, stop) in enumerate(
                zip(boundaries[:-1], boundaries[1:])
            )
        ]
        index = cls(
            params,
            hubs,
            hub_matrix,
            hub_deficit,
            shards,
            build_seconds=build_seconds,
            directory=directory,
        )
        if _resolve_backing(total_bytes, memory_budget) == "ram":
            index._materialize_all()
        return index

    def _materialize_all(self) -> None:
        """Promote every shard to an in-RAM shard (no disk-lazy storage).

        Each shard's flattened state arrays (overlay writes merged) and
        columns are copied into RAM wholesale, as flat arrays.
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

    def __repr__(self) -> str:
        backings = {shard.backing for shard in self.shards}
        return (
            f"ReverseTopKIndex(n_nodes={self.n_nodes}, K={self.capacity}, "
            f"hubs={len(self.hubs)}, shards={self.n_shards}, "
            f"backing={'/'.join(sorted(backings))})"
        )


def _resolve_backing(total_bytes: int, memory_budget: Optional[int]) -> str:
    """Pick the shard backing for an index of ``total_bytes`` under a budget.

    ``None`` budget means "hold everything in RAM" (the default); otherwise
    the index goes out-of-core exactly when it does not fit.  A budget of
    ``0`` therefore always selects the memmap layout.
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
# construction (Algorithm 1), shard by shard
# ----------------------------------------------------------------------- #
def build_index(
    graph: Union[DiGraph, sp.spmatrix],
    params: Optional[IndexParams] = None,
    *,
    hubs: Optional[HubSet] = None,
    transition: Optional[sp.spmatrix] = None,
    n_shards: int = 1,
    directory: Optional[PathLike] = None,
    memory_budget: Optional[int] = None,
    n_workers: Optional[int] = None,
) -> ReverseTopKIndex:
    """Build the reverse top-k index for a graph (Algorithm 1).

    Parameters
    ----------
    graph:
        Either a :class:`~repro.graph.digraph.DiGraph` or a pre-built
        column-stochastic transition matrix.
    params:
        Index construction parameters; defaults to the paper's settings,
        clamped to the graph size.
    hubs:
        Pre-selected hub set; defaults to the degree heuristic of §4.1.1 with
        ``params.hub_budget``.
    transition:
        Pre-computed transition matrix (overrides the graph's default,
        unweighted one — pass the weighted matrix for co-authorship graphs).
    n_shards:
        Number of contiguous node-range shards ``P`` (clamped to the node
        count).  The contents do not depend on it.
    directory:
        Where to write the on-disk layout.  Without a ``memory_budget`` the
        index is built in RAM and the layout archived there.
    memory_budget:
        Bytes the index may keep resident.  Each shard streams to
        ``directory`` (then required) as soon as it is built; the sealed
        layout's recorded total then decides the backing exactly as
        :meth:`ReverseTopKIndex.load` does — an index that fits is
        materialised back into RAM, one that does not stays memmap-backed.
    n_workers:
        Run the propagation on a pool of this many processes (``None`` or
        ``<= 1`` runs in-process).  The kernel is bitwise deterministic per
        source, so the index is the same either way.

    The returned index carries a :class:`~repro.core.propagation.BuildReport`
    as ``index.build_report``: per-phase seconds for the exact hub proximity
    computation (``hub_matrix``), ink propagation (``bca``), lower-bound and
    column materialization (``materialize``) and — with a ``directory`` —
    writing the shards (``persist``), which sum to ``index.build_seconds``.
    """
    matrix, n, params, hubs = _resolve_build_inputs(graph, params, hubs, transition)
    budgeted = memory_budget is not None
    if budgeted:
        target: Optional[Path] = _require_directory(directory, memory_budget)
    else:
        target = Path(directory) if directory is not None else None
    if target is not None:
        target.mkdir(parents=True, exist_ok=True)

    stages = StageTimer()
    with stages.time("hub_matrix"):
        hub_matrix, hub_deficit, hub_top_k = _compute_hub_matrix(matrix, hubs, params)
    hub_mask = hubs.mask(n)
    boundaries = shard_boundaries(n, n_shards).tolist()
    ranges = list(zip(boundaries[:-1], boundaries[1:]))

    # Each range's non-hub sources as pool tasks: about four per worker keeps
    # the pool balanced when convergence times are uneven; in-process, one
    # task per range.
    parallel = n_workers is not None and n_workers > 1
    pieces = -(-4 * n_workers // len(ranges)) if parallel else 1
    tasks: List[Tuple[int, List[int]]] = []
    for ordinal, (start, stop) in enumerate(ranges):
        sources = np.flatnonzero(~hub_mask[start:stop]) + start
        split = [part for part in np.array_split(sources, pieces) if part.size]
        tasks += [(ordinal, part.tolist()) for part in split or [sources]]
    per_range = Counter(ordinal for ordinal, _ in tasks)

    if parallel:
        pool = ProcessPoolExecutor(
            max_workers=n_workers,
            initializer=_init_shard_worker,
            initargs=(matrix, hub_mask, params, hubs, hub_matrix),
        )
        run, worker = pool.map, _collect_shard
    else:
        pool = contextlib.nullcontext()
        kernel = PropagationKernel(
            matrix, hub_mask, params, hubs=hubs, hub_matrix=hub_matrix
        )
        run, worker = map, functools.partial(kernel.run, stages=stages)

    shards: List[IndexShard] = []
    with pool:
        parts = run(worker, [part for _, part in tasks])
        for ordinal, (start, stop) in enumerate(ranges):
            # Waiting on the pool is propagation; in-process the kernel
            # splits its own time into ``bca`` and ``materialize``.
            with stages.time("bca"):
                collected = list(itertools.islice(parts, per_range[ordinal]))
            with stages.time("materialize"):
                store = assemble_store(
                    start, stop, params.capacity, collected, hub_mask, hub_top_k
                )
                shard = IndexShard.from_store(
                    start, stop, params.capacity, store,
                    store.column_masses(hubs, hub_deficit),
                )
            if target is not None:
                with stages.time("persist"):
                    shard.write(target, ordinal)
                if budgeted:
                    # Out of core: keep only the lazy view of what was written.
                    shard = IndexShard.from_layout(
                        target, ordinal, start, stop, params.capacity
                    )
            shards.append(shard)

    report = BuildReport(n_nodes=n, n_targets=n, stage_seconds=stages.as_dict())
    _emit_build_metrics(report)
    index = ReverseTopKIndex(
        params,
        hubs,
        hub_matrix,
        hub_deficit,
        shards,
        build_seconds=report.build_seconds,
        directory=target,
    )
    index.build_report = report
    if target is not None:
        # Seal the layout: the shard files become loadable only once the
        # meta archive lands (written last, atomically).
        index._write_meta(target)
        if budgeted and _resolve_backing(index.total_bytes(), memory_budget) == "ram":
            # The finished index fits the budget after all: serve it from
            # RAM (the layout stays on disk for the next warm start).
            index._materialize_all()
    return index
