"""The reverse top-k index data structure (Section 4.1).

The index ``I = (P̂, R, W, S, P_H)`` holds, for every node ``u``:

* ``P̂`` — the ``K`` largest entries of the lower-bound proximity vector
  ``p^t_u`` in descending order (the pruning workhorse);
* ``R`` — the residue ink vector ``r^t_u`` (what BCA has not yet distributed);
* ``W`` — the ink retained at non-hub nodes ``w^t_u``;
* ``S`` — the ink accumulated at hub nodes ``s^t_u``;
* ``P_H`` — the (optionally rounded) exact proximity vectors of the hubs.

One representation
------------------
``R``, ``W``, ``S`` and ``P̂`` are column-per-node sparse matrices, and that
is how they are stored: flat ``(indptr, keys, values)`` arrays in a
:class:`~repro.core.statestore.ColumnarStateStore` — the layout the ``.npz``
archive and the sharded on-disk files persist byte for byte.  Every index
owns a store (a ``List[NodeState]`` handed to the constructor is flattened
once, there; :meth:`ReverseTopKIndex.load` reads the archive's arrays
straight into one).  One node's column travels as a :class:`StateArrays`
(flat segments): what the refinement working set loads, what a write-back
spills, and what the store's overlay holds.  :class:`NodeState` — three
``{node: value}`` dicts — survives only as the *by-value* view
:meth:`ReverseTopKIndex.state` returns and as the working representation of
the seed reference loop under ``tests/``; mutating one changes nothing until
it is handed back through :meth:`ReverseTopKIndex.set_state`.  ``P_H`` is a CSC
matrix with one column per hub.

Columnar views (vectorized query engine)
----------------------------------------
On top of the store the index maintains three incrementally-updated
columnar arrays, exposed as :attr:`ReverseTopKIndex.columns`:

* ``lower`` — the dense ``(K, n)`` lower-bound matrix ``P̂`` (column ``u`` =
  top-``K`` lower bounds of ``u``, descending, zero-padded);
* ``residual_mass`` — an ``n``-vector of *effective* residual masses, i.e.
  ``||r_u||_1`` plus the hub rounding deficit correction (see below);
* ``is_exact`` — a boolean mask marking nodes whose bounds are exact values.

These views are what Algorithm 4's vectorized scan phase operates on: the
whole-array prune ``p_u(q) < P̂[k-1, u]``, the exact-shortcut acceptance and
the batched staircase upper-bound check all read the columns directly.
Every write-back through :meth:`set_state` refreshes the corresponding
column so the views never go stale.

Rounding note (§4.1.3): zeroing hub proximity entries below ``omega`` keeps
``p^t_u`` a valid *lower* bound but silently drops mass that the staircase
*upper* bound of Algorithm 3 would otherwise account for.  To keep the upper
bound sound we record, per hub, the total mass removed by rounding
(``hub_deficit``) and add ``s_u[h] * deficit[h]`` back into the residue mass
used by the bound.  With the paper's default ``omega = 1e-6`` the correction
is negligible, but it makes Proposition 4 hold exactly in all configurations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import os
from pathlib import Path
import tempfile
from typing import Dict, Iterable, List, Optional, Tuple, Union
import zipfile

import numpy as np
import scipy.sparse as sp

from .._validation import check_node_index, check_positive_int
from ..exceptions import InvalidParameterError, SerializationError
from .config import IndexParams
from .hubs import HubSet

PathLike = Union[str, os.PathLike]


@dataclass(frozen=True)
class ColumnarView:
    """Live columnar views over the index, consumed by the vectorized engine.

    The arrays are the index's working storage, *not* copies: they reflect
    every state write-back immediately and must be treated as read-only by
    callers (write node states through :meth:`ReverseTopKIndex.set_state`
    instead).

    Attributes
    ----------
    lower:
        Dense ``(K, n)`` lower-bound matrix ``P̂``; row ``k-1`` holds the k-th
        lower bound of every node (zero-padded when fewer bounds are known).
    residual_mass:
        ``n``-vector of effective residual masses — ``||r_u||_1`` plus the hub
        rounding-deficit correction used by the staircase upper bound.
    is_exact:
        ``n``-vector boolean mask; ``True`` where the lower bounds are the
        exact proximity values (hubs and fully-drained states).
    """

    lower: np.ndarray
    residual_mass: np.ndarray
    is_exact: np.ndarray

#: Bytes per stored floating-point value / index, used for size accounting.
_VALUE_BYTES = 8
_INDEX_BYTES = 8

#: Process umask, captured once at import: os.umask is process-global and
#: can only be read by setting it, so toggling it per save would race under
#: the concurrent multi-thread saves :meth:`ReverseTopKIndex.save` supports.
_UMASK = os.umask(0)
os.umask(_UMASK)


def storage_breakdown(index, state_entries: int) -> Dict[str, int]:
    """Table 2 accounting: 8-byte value plus 8-byte index per sparse entry."""
    lower = index.capacity * index.n_nodes * _VALUE_BYTES
    state_bytes = state_entries * (_VALUE_BYTES + _INDEX_BYTES)
    hub_bytes = index.hub_matrix.nnz * (_VALUE_BYTES + _INDEX_BYTES)
    return {
        "lower_bounds": lower,
        "bca_state": state_bytes,
        "hub_matrix": hub_bytes,
        "total": lower + state_bytes + hub_bytes,
    }


def atomic_write(path: Path, writer) -> None:
    """Write a file via a uniquely-named temp sibling plus ``os.replace``."""
    try:
        descriptor, name = tempfile.mkstemp(prefix=f"{path.name}.tmp-", dir=path.parent)
    except OSError as exc:
        raise SerializationError(f"cannot write {path}: {exc}") from exc
    temporary = Path(name)
    try:
        with os.fdopen(descriptor, "wb") as handle:
            # mkstemp creates 0600 files; restore the umask-default mode a
            # plain open() would have produced, so other readers of a shared
            # snapshot directory keep working.
            os.fchmod(descriptor, 0o666 & ~_UMASK)
            writer(handle)
            # Flush to disk before the rename: otherwise a crash can persist
            # the replace but not the data, leaving a torn file.
            handle.flush()
            os.fsync(descriptor)
        os.replace(temporary, path)
    except OSError as exc:
        raise SerializationError(f"cannot write {path}: {exc}") from exc
    finally:
        if temporary.exists():
            temporary.unlink()


def effective_state_residual_mass(
    state: "StateArrays", hubs: HubSet, hub_deficit: np.ndarray
) -> float:
    """Effective residual mass of a state under a given hub configuration.

    ``||r||_1`` plus the hub rounding-deficit correction (see the module
    docstring): a sequential sum over the residual values in storage order,
    then the corrections in hub-ink storage order.  Shared by the monolithic
    index and the sharded layout, so every columnar ``residual_mass`` entry
    is computed by exactly one definition wherever the state lives.
    """
    hub_keys, hub_values = state.hub_ink
    return _row_mass(state.residual[1], hub_keys, hub_values, hubs, hub_deficit)


def _row_mass(residual_values, hub_keys, hub_values, hubs, hub_deficit) -> float:
    # Python's sequential sum, not NumPy's pairwise reduction: the two are
    # not bitwise equal, and the dict-based reference loop sums sequentially.
    mass = float(sum(residual_values.tolist()))
    if hub_deficit.size and len(hub_keys):
        for hub, ink in zip(hub_keys.tolist(), hub_values.tolist()):
            mass += ink * float(hub_deficit[hubs.position(hub)])
    return mass


@dataclass
class NodeState:
    """Per-node BCA state: the column of ``R``, ``W``, ``S`` and ``P̂`` for one node.

    Attributes
    ----------
    residual:
        ``{node: residue ink}`` — ink waiting to be propagated (non-hub nodes only).
    retained:
        ``{node: retained ink}`` — ink permanently retained at non-hub nodes.
    hub_ink:
        ``{hub node: accumulated ink}`` — ink parked at hubs, to be expanded
        through ``P_H`` when the approximate vector is materialised.
    lower_bounds:
        Descending top-``K`` values of the approximate proximity vector.
    iterations:
        Number of batched BCA iterations applied so far (``t_u``).
    is_hub:
        Hub nodes carry their exact top-``K`` proximities and no residue.
    """

    residual: Dict[int, float] = field(default_factory=dict)
    retained: Dict[int, float] = field(default_factory=dict)
    hub_ink: Dict[int, float] = field(default_factory=dict)
    lower_bounds: np.ndarray = field(default_factory=lambda: np.zeros(0))
    iterations: int = 0
    is_hub: bool = False

    @property
    def residual_mass(self) -> float:
        """Total undistributed ink ``||r^t_u||_1``."""
        return float(sum(self.residual.values()))

    @property
    def is_exact(self) -> bool:
        """True when no residue remains, i.e. the lower bounds are exact values."""
        return self.is_hub or not self.residual

    def kth_lower_bound(self, k: int) -> float:
        """The k-th largest lower bound (``p̂^t_u(k)``); zero when unknown."""
        if k <= 0:
            raise ValueError("k must be positive")
        if k > self.lower_bounds.size:
            return 0.0
        return float(self.lower_bounds[k - 1])

    def copy(self) -> "NodeState":
        """Deep copy (a detached working copy for tests and ablations)."""
        return NodeState(
            residual=dict(self.residual),
            retained=dict(self.retained),
            hub_ink=dict(self.hub_ink),
            lower_bounds=self.lower_bounds.copy(),
            iterations=self.iterations,
            is_hub=self.is_hub,
        )

    def stored_entries(self) -> int:
        """Number of sparse entries stored for this node (for size accounting)."""
        return len(self.residual) + len(self.retained) + len(self.hub_ink)


_PARAM_FIELDS = (
    "alpha",
    "capacity",
    "propagation_threshold",
    "residue_threshold",
    "rounding_threshold",
    "hub_budget",
    "tolerance",
)


def params_to_arrays(params: IndexParams) -> Dict[str, np.ndarray]:
    """One length-1 array per persisted :class:`IndexParams` field."""
    return {name: np.array([getattr(params, name)]) for name in _PARAM_FIELDS}


def params_from_arrays(data) -> IndexParams:
    """Inverse of :func:`params_to_arrays` (monolithic and sharded archives).

    Reads exactly :data:`_PARAM_FIELDS`, so the ``backend`` and
    ``block_size`` entries that older archives carry are ignored: they named
    implementation choices that no longer exist and never changed contents.
    """
    return IndexParams(**{name: data[name][0].item() for name in _PARAM_FIELDS})


def resolve_hub_components(
    index,
    hubs: Optional[HubSet],
    hub_matrix: Optional[sp.spmatrix],
    hub_deficit: Optional[np.ndarray],
    *,
    allow_rowless: bool = False,
) -> Tuple[HubSet, sp.csc_matrix, np.ndarray]:
    """An index's ``(hubs, P_H, deficit)`` with the given parts swapped in.

    Parts left ``None`` keep the index's current value; the resulting triple
    is validated together (a new matrix's row count against the node count,
    column count and deficit length against the hub count) before anything
    is assigned.
    """
    hubs = index.hubs if hubs is None else hubs
    matrix = index.hub_matrix if hub_matrix is None else hub_matrix.tocsc()
    deficit = (
        index.hub_deficit
        if hub_deficit is None
        else np.asarray(hub_deficit, dtype=np.float64)
    )
    rowless_ok = allow_rowless and not matrix.shape[0]
    if hub_matrix is not None and matrix.shape[0] != index.n_nodes and not rowless_ok:
        raise ValueError(
            f"hub matrix has {matrix.shape[0]} rows but the index covers "
            f"{index.n_nodes} nodes"
        )
    if matrix.shape[1] != len(hubs):
        raise ValueError(
            f"hub matrix has {matrix.shape[1]} columns but {len(hubs)} hubs"
        )
    if deficit.size != len(hubs):
        raise ValueError("hub_deficit length must equal the number of hubs")
    return hubs, matrix, deficit


def expand_state(
    state: "StateArrays | NodeState",
    hubs: HubSet,
    hub_matrix: sp.csc_matrix,
    n_nodes: int,
) -> np.ndarray:
    """Dense ``p^t = w + P_H s`` of a state (Eq. 7), one hub column at a time."""
    arrays = _as_arrays(state)
    vector = np.zeros(n_nodes, dtype=np.float64)
    keys, values = arrays.retained
    vector[keys] = values
    for hub, ink in zip(*(segment.tolist() for segment in arrays.hub_ink)):
        position = hubs.position(hub)
        start, stop = hub_matrix.indptr[position], hub_matrix.indptr[position + 1]
        vector[hub_matrix.indices[start:stop]] += ink * hub_matrix.data[start:stop]
    return vector


#: The three sparse per-node planes, in flattened-layout order.
STATE_PLANES = ("residual", "retained", "hub_ink")

#: The canonical flattened state layout (one array per name): what a
#: :class:`~repro.core.statestore.ColumnarStateStore` holds, the monolithic
#: ``.npz`` archive stores, and the sharded on-disk layout persists as
#: per-shard ``.npy`` files.
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


@dataclass(frozen=True)
class StateArrays:
    """One node's state as flat ``(keys, values)`` segments — no dicts.

    The unit every layer exchanges: what the store (a RAM shard and a memmap
    shard alike) hands the refinement working set, what a write-back spills,
    and what the store's overlay holds.  Segments may be read-only memmap
    views.
    """

    residual: Tuple[np.ndarray, np.ndarray]
    retained: Tuple[np.ndarray, np.ndarray]
    hub_ink: Tuple[np.ndarray, np.ndarray]
    lower_bounds: np.ndarray
    iterations: int = 0
    is_hub: bool = False

    @property
    def is_exact(self) -> bool:
        """True when no residue remains, i.e. the lower bounds are exact values."""
        return self.is_hub or not len(self.residual[0])

    def stored_entries(self) -> int:
        """Number of sparse entries stored for this node (for size accounting)."""
        planes = (self.residual, self.retained, self.hub_ink)
        return sum(len(keys) for keys, _ in planes)

    @classmethod
    def from_state(cls, state: NodeState) -> "StateArrays":
        """Flatten a dict-backed state (entries keep their dict order)."""
        planes = [
            (
                np.fromiter(entries.keys(), dtype=np.int64, count=len(entries)),
                np.fromiter(entries.values(), dtype=np.float64, count=len(entries)),
            )
            for entries in (state.residual, state.retained, state.hub_ink)
        ]
        return cls(*planes, state.lower_bounds, state.iterations, state.is_hub)

    @classmethod
    def from_flat(cls, arrays, node: int) -> "StateArrays":
        """Slice ``node``'s row out of the flattened state-array layout."""
        planes = []
        for name in STATE_PLANES:
            indptr = arrays[f"{name}_indptr"]
            lo, hi = int(indptr[node]), int(indptr[node + 1])
            planes.append(
                (
                    np.asarray(arrays[f"{name}_keys"][lo:hi]),
                    np.asarray(arrays[f"{name}_values"][lo:hi]),
                )
            )
        return cls(
            *planes,
            np.asarray(arrays["lower_bounds"][node]),
            int(arrays["iterations"][node]),
            bool(arrays["is_hub"][node]),
        )

    def to_state(self) -> NodeState:
        """Materialise the dict-backed :class:`NodeState` (fresh containers)."""
        # tolist() detaches each (possibly memmapped) segment in one read.
        planes = [
            dict(zip(keys.tolist(), values.tolist()))
            for keys, values in (self.residual, self.retained, self.hub_ink)
        ]
        lower_bounds = np.array(self.lower_bounds, dtype=np.float64)
        return NodeState(*planes, lower_bounds, self.iterations, self.is_hub)


def _as_arrays(state: "StateArrays | NodeState") -> StateArrays:
    return state if isinstance(state, StateArrays) else StateArrays.from_state(state)


class ReverseTopKIndex:
    """The complete offline index over all nodes of a graph.

    Instances are produced by :func:`repro.core.lbi.build_index`; they are
    mutable because Algorithm 4 refines node states during query evaluation
    and (optionally) persists the refinement.
    """

    def __init__(
        self,
        params: IndexParams,
        hubs: HubSet,
        hub_matrix: sp.csc_matrix,
        hub_deficit: np.ndarray,
        states,
        *,
        build_seconds: float = 0.0,
    ) -> None:
        self.params = params
        self.hubs = hubs
        self.hub_matrix = hub_matrix.tocsc()
        self.hub_deficit = np.asarray(hub_deficit, dtype=np.float64)
        self._store = _as_store(states, params.capacity)
        self.build_seconds = float(build_seconds)
        #: Per-phase cost breakdown of the build that produced this index
        #: (a :class:`repro.core.propagation.BuildReport`); ``None`` for
        #: indexes loaded from disk or assembled by hand.
        self.build_report = None
        self._version = 0
        if self.hub_matrix.shape[1] != len(hubs):
            raise ValueError(
                f"hub matrix has {self.hub_matrix.shape[1]} columns but {len(hubs)} hubs"
            )
        if self.hub_deficit.size != len(hubs):
            raise ValueError("hub_deficit length must equal the number of hubs")
        self._lower32: Optional[np.ndarray] = None
        self._columns: ColumnarView = self._build_columns()

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def n_nodes(self) -> int:
        """Number of indexed nodes."""
        return self._store.n_states

    @property
    def store(self):
        """The :class:`~repro.core.statestore.ColumnarStateStore` of all states."""
        return self._store

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
    def columns(self) -> ColumnarView:
        """The live :class:`ColumnarView` over this index (read-only arrays).

        Built once per store (construction, :meth:`replace_contents`) and
        kept in step by every write; a pickled index carries it along.
        """
        return self._columns

    def state(self, node: int) -> NodeState:
        """``node``'s state as a detached :class:`NodeState`, by value.

        Mutating the returned view changes nothing in the index; hand it
        back through :meth:`set_state` to store it.
        """
        return self._store.state(check_node_index(node, self.n_nodes))

    def state_arrays(self, node: int) -> StateArrays:
        """``node``'s state as flat segments — no ``NodeState`` is built."""
        return self._store.state_arrays(check_node_index(node, self.n_nodes))

    def set_state(self, node: int, state: "StateArrays | NodeState") -> None:
        """Replace the stored state of ``node`` (used by the update policy)."""
        node = check_node_index(node, self.n_nodes)
        self._sync_column(node, self._store.set_state(node, _as_arrays(state)))

    def states(self) -> Iterable[Tuple[int, NodeState]]:
        """Iterate over ``(node, state)`` pairs (by-value views)."""
        return enumerate(self._store.iter_states())

    def replace_contents(
        self,
        *,
        hubs: Optional[HubSet] = None,
        hub_matrix: Optional[sp.spmatrix] = None,
        hub_deficit: Optional[np.ndarray] = None,
        states=None,
    ) -> None:
        """Swap index components wholesale after dynamic-graph maintenance.

        ``states`` is a :class:`~repro.core.statestore.ColumnarStateStore`
        (a full rebuild hands over the fresh index's).

        The dynamic subsystem mutates the index *in place* rather than
        producing a new object, so every holder of a reference (the engine,
        the serving façade, metrics snapshots) keeps observing the same
        index and — crucially — the same monotonic :attr:`version` counter:
        a freshly constructed index would restart at version 0 and collide
        with cache entries keyed under the old generation.

        All given components are validated together (hub matrix width and
        deficit length against the hub count, state count against the node
        count), the columnar views are rebuilt in one pass, and the version
        is bumped exactly once — one maintenance application, one cache
        generation.
        """
        new_hubs, new_matrix, new_deficit = resolve_hub_components(
            self, hubs, hub_matrix, hub_deficit
        )
        if states is not None:
            if (len(states), states.capacity) != (self.n_nodes, self.capacity):
                raise ValueError(
                    f"expected {self.n_nodes} states of capacity {self.capacity}, "
                    f"got {len(states)} of capacity {states.capacity}"
                )
            self._store = states
        self.hubs = new_hubs
        self.hub_matrix = new_matrix
        self.hub_deficit = new_deficit
        self._version += 1
        self._columns = self._build_columns()

    def apply_updates(
        self,
        states: Dict[int, StateArrays],
        *,
        hub_matrix: Optional[sp.spmatrix] = None,
        hub_deficit: Optional[np.ndarray] = None,
    ) -> None:
        """Targeted maintenance writes with a single version bump.

        Delta maintenance rewrites only the nodes it invalidated (plus hub
        rows) — ``O(len(states))`` overlay writes and columns, not ``O(n)``.
        The hub set itself is unchanged by construction (the
        fast path pins it); callers are responsible for only leaving nodes
        untouched whose columns are unaffected by the new hub data.
        """
        _, self.hub_matrix, self.hub_deficit = resolve_hub_components(
            self, None, hub_matrix, hub_deficit
        )
        columns = self.columns
        for node, state in states.items():
            node = check_node_index(node, self.n_nodes)
            self._write_column(columns, node, self._store.set_state(node, state))
            if self._lower32 is not None:
                self._lower32[:, node] = columns.lower[:, node]
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
        return self.columns.lower[k - 1].copy()

    def lower_bound_matrix(self) -> np.ndarray:
        """Dense ``K x n`` matrix ``P̂`` (column ``u`` = top-K lower bounds of ``u``)."""
        return self.columns.lower.copy()

    def lower_bounds_f32(self) -> np.ndarray:
        """The float32 mirror of ``P̂``, for the screened scan (read-only use).

        Materialised lazily from the float64 columns and kept in sync by
        every column write-back, so it always mirrors :attr:`columns`
        ``.lower`` rounded to float32.  Callers must treat the array as
        read-only; it is derived state and is dropped from pickles (rebuilt
        on first access).
        """
        if self._lower32 is None:
            self._lower32 = self.columns.lower.astype(np.float32)
        return self._lower32

    # ------------------------------------------------------------------ #
    # approximate proximity reconstruction
    # ------------------------------------------------------------------ #
    def approximate_vector(self, node: int) -> np.ndarray:
        """Materialise the lower-bound proximity vector ``p^t_node`` (Eq. 7).

        ``p^t = w + P_H @ s`` — retained ink at non-hubs plus hub ink expanded
        through the (rounded) hub proximity columns.
        """
        n = self.hub_matrix.shape[0] if self.hub_matrix.shape[0] else self.n_nodes
        return expand_state(self.state_arrays(node), self.hubs, self.hub_matrix, n)

    def effective_residual_mass(self, node: int) -> float:
        """Residue mass for the upper bound, including the rounding deficit.

        ``||r_u||_1`` plus the mass lost because hub proximities were rounded
        (``sum_h s_u[h] * deficit[h]``) — see the module docstring.
        """
        return self.state_residual_mass(self.state_arrays(node))

    def state_residual_mass(self, state: StateArrays) -> float:
        """Effective residual mass of an arbitrary (possibly detached) state.

        Used by the query engine on working copies during refinement, and by
        the column sync so the columnar ``residual_mass`` vector holds exactly
        the value the per-node computation would produce.
        """
        return effective_state_residual_mass(state, self.hubs, self.hub_deficit)

    # ------------------------------------------------------------------ #
    # columnar view maintenance
    # ------------------------------------------------------------------ #
    def _build_columns(self) -> ColumnarView:
        """Assemble the columnar views straight off the store's arrays."""
        # A wholesale rebuild invalidates the float32 mirror; it re-derives
        # lazily from the fresh columns on the next screened scan.
        self._lower32 = None
        return ColumnarView(
            lower=self._store.lower_matrix(),
            residual_mass=self._store.column_masses(self.hubs, self.hub_deficit),
            is_exact=self._store.is_exact_mask(),
        )

    def _sync_column(self, node: int, state: StateArrays) -> None:
        # Every write-back is a visible index mutation: bump the version so
        # version-keyed caches (the serving layer) stop serving stale answers.
        self._version += 1
        self._write_column(self._columns, node, state)
        if self._lower32 is not None:
            self._lower32[:, node] = self._columns.lower[:, node]

    # ------------------------------------------------------------------ #
    # pickling (process-pool workers)
    # ------------------------------------------------------------------ #
    def __getstate__(self) -> dict:
        """Ship the columnar view with the store; drop only the float32 mirror.

        The view (``K·n·8 + 9n`` bytes beside a much larger store) costs one
        Python-level mass computation *per node* to re-derive, which every
        rollover clone and process-pool worker used to pay on its first
        ``columns`` access; it is current by construction (every write goes
        through :meth:`_write_column`), so it travels as is.  The float32
        mirror is one ``astype`` away and re-derives lazily.
        """
        state = self.__dict__.copy()
        state["_lower32"] = None
        return state

    def _write_column(self, columns: ColumnarView, node: int, state: StateArrays) -> None:
        columns.lower[:, node] = state.lower_bounds
        columns.residual_mass[node] = self.state_residual_mass(state)
        columns.is_exact[node] = state.is_exact

    # ------------------------------------------------------------------ #
    # size accounting (Table 2)
    # ------------------------------------------------------------------ #
    def storage_bytes(self) -> Dict[str, int]:
        """Approximate storage footprint per index component, in bytes.

        Matches the accounting of Table 2: the top-K lower bound matrix, the
        sparse BCA state matrices ``R``/``W``/``S`` and the hub proximity
        matrix ``P_H`` (rounded).  Entries are counted as 8-byte value plus
        8-byte index, mirroring a coordinate sparse representation.
        """
        return storage_breakdown(self, self._store.stored_entries())

    def total_bytes(self) -> int:
        """Total approximate index size in bytes."""
        return self.storage_bytes()["total"]

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path: PathLike) -> None:
        """Serialise the index to a ``.npz`` archive, atomically.

        The archive is first written to a uniquely-named temporary sibling
        file (:func:`tempfile.mkstemp`, so concurrent saves — even of the
        same path from several threads — never share a temp file) and then
        moved into place with :func:`os.replace`.  A failure mid-write
        (full disk, crash, interrupted process) therefore never corrupts an
        existing snapshot at ``path`` — readers see either the old complete
        archive or the new one, never a torn file.

        Mirroring :func:`numpy.savez_compressed`, a ``.npz`` suffix is
        appended to ``path`` when it is missing.
        """
        path = Path(path)
        if not path.name.endswith(".npz"):
            path = path.with_name(path.name + ".npz")
        arrays = self._store.to_arrays()
        hub_matrix = self.hub_matrix.tocoo()
        atomic_write(path, lambda handle: self._write_npz(handle, arrays, hub_matrix))

    def _write_npz(self, handle, arrays, hub_matrix) -> None:
        """Write the archive payload to an open binary file handle."""
        np.savez_compressed(
            handle,
            **params_to_arrays(self.params),
            hubs=np.asarray(self.hubs.nodes, dtype=np.int64),
            hub_deficit=self.hub_deficit,
            hub_rows=hub_matrix.row.astype(np.int64),
            hub_cols=hub_matrix.col.astype(np.int64),
            hub_vals=hub_matrix.data.astype(np.float64),
            hub_shape=np.asarray(self.hub_matrix.shape, dtype=np.int64),
            build_seconds=np.array([self.build_seconds]),
            **arrays,
        )

    @classmethod
    def load(cls, path: PathLike) -> "ReverseTopKIndex":
        """Load an index previously written by :meth:`save`."""
        path = Path(path)
        try:
            with np.load(path, allow_pickle=False) as data:
                params = params_from_arrays(data)
                hubs = HubSet.from_iterable(data["hubs"].tolist())
                shape = tuple(int(x) for x in data["hub_shape"])
                hub_matrix = sp.coo_matrix(
                    (data["hub_vals"], (data["hub_rows"], data["hub_cols"])), shape=shape
                ).tocsc()
                # One read per array (an NpzFile decompresses on every item
                # access), straight into the store: no per-node objects.
                states = _as_store(
                    {name: data[name] for name in STATE_ARRAY_NAMES}, params.capacity
                )
                return cls(
                    params,
                    hubs,
                    hub_matrix,
                    data["hub_deficit"],
                    states,
                    build_seconds=float(data["build_seconds"][0]),
                )
        except (OSError, KeyError, ValueError, zipfile.BadZipFile) as exc:
            # BadZipFile: a truncated/torn .npz that still begins with the
            # zip magic — np.load raises it instead of ValueError.
            raise SerializationError(f"cannot load index from {path}: {exc}") from exc

    def __repr__(self) -> str:
        return (
            f"ReverseTopKIndex(n_nodes={self.n_nodes}, K={self.capacity}, "
            f"hubs={len(self.hubs)}, bytes={self.total_bytes()})"
        )


# ----------------------------------------------------------------------- #
# (de)serialisation helpers
# ----------------------------------------------------------------------- #
def _dicts_to_arrays(dicts: List[Dict[int, float]]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten a list of ``{index: value}`` dicts into (indptr, keys, values)."""
    counts = np.array([len(d) for d in dicts], dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    keys = np.empty(int(indptr[-1]), dtype=np.int64)
    values = np.empty(int(indptr[-1]), dtype=np.float64)
    position = 0
    for entry in dicts:
        for key, value in entry.items():
            keys[position] = key
            values[position] = value
            position += 1
    return indptr, keys, values


def _states_to_arrays(states: List[NodeState], capacity: int) -> Dict[str, np.ndarray]:
    arrays: Dict[str, np.ndarray] = {}
    for name in STATE_PLANES:
        indptr, keys, values = _dicts_to_arrays([getattr(s, name) for s in states])
        arrays[f"{name}_indptr"] = indptr
        arrays[f"{name}_keys"] = keys
        arrays[f"{name}_values"] = values
    lower = np.zeros((len(states), capacity), dtype=np.float64)
    for row, state in enumerate(states):
        count = min(capacity, state.lower_bounds.size)
        lower[row, :count] = state.lower_bounds[:count]
    arrays["lower_bounds"] = lower
    arrays["iterations"] = np.array([s.iterations for s in states], dtype=np.int64)
    arrays["is_hub"] = np.array([s.is_hub for s in states], dtype=bool)
    return arrays


def _as_store(states, capacity: int):
    """``states`` — a store, flat arrays or a state list — as a store."""
    # statestore imports this module, so the class is looked up at call time.
    from .statestore import ColumnarStateStore

    if isinstance(states, dict):
        states = ColumnarStateStore(states, capacity)
    elif not isinstance(states, ColumnarStateStore):
        states = ColumnarStateStore.from_states(states, capacity)
    if int(states.capacity) != int(capacity):
        raise ValueError(
            f"columnar store capacity {states.capacity} does not match "
            f"index capacity {capacity}"
        )
    return states
