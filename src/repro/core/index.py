"""Per-node index pieces shared by every layer (Section 4.1).

The index ``I = (P̂, R, W, S, P_H)`` holds, for every node ``u``:

* ``P̂`` — the ``K`` largest entries of the lower-bound proximity vector
  ``p^t_u`` in descending order (the pruning workhorse);
* ``R`` — the residue ink vector ``r^t_u`` (what BCA has not yet distributed);
* ``W`` — the ink retained at non-hub nodes ``w^t_u``;
* ``S`` — the ink accumulated at hub nodes ``s^t_u``;
* ``P_H`` — the (optionally rounded) exact proximity vectors of the hubs.

The index itself, :class:`~repro.core.sharding.ReverseTopKIndex`, stores
them as global hub data plus ``P ≥ 1`` contiguous node-range shards.  This
module holds what that class, the state store, the kernel and the
maintainer share: the per-node value type, the columnar view, the
residual-mass definition, the persisted parameter fields and the atomic
file write.

One representation
------------------
``R``, ``W`` and ``S`` are column-per-node sparse matrices, and that is how
they are stored: flat ``(indptr, keys, values)`` arrays in a
:class:`~repro.core.statestore.ColumnarStateStore` per shard — the layout
the on-disk per-shard ``.npy`` files persist byte for byte.  ``P̂`` is kept
once per shard, as the dense ``(K, n)`` ``lower`` plane below, which the
store shares rather than copies.  One node's column travels as a
:class:`StateArrays` (flat segments): what ``index.state_arrays(node)``
reads, what the refinement working set loads, what a write-back spills
through ``index.set_state`` and what the store's overlay holds.  There is
no other per-node state object.  ``P_H`` is a CSC matrix with one column
per hub.

Columnar views (the scan)
-------------------------
Beside its store every shard keeps three columnar arrays over its range,
a :class:`ColumnarView`:

* ``lower`` — the dense ``(K, n)`` lower-bound matrix ``P̂`` (column ``u`` =
  top-``K`` lower bounds of ``u``, descending, zero-padded);
* ``residual_mass`` — an ``n``-vector of *effective* residual masses, i.e.
  ``||r_u||_1`` plus the hub rounding deficit correction (see below);
* ``is_exact`` — a boolean mask marking nodes whose bounds are exact values.

These views are what Algorithm 4's scan operates on: the whole-array prune
``p_u(q) < P̂[k-1, u]``, the exact-shortcut acceptance and the batched
staircase upper-bound check all read the columns directly.  Every
write-back refreshes the corresponding column so the views never go stale.

Rounding note (§4.1.3): zeroing hub proximity entries below ``omega`` keeps
``p^t_u`` a valid *lower* bound but silently drops mass that the staircase
*upper* bound of Algorithm 3 would otherwise account for.  To keep the upper
bound sound we record, per hub, the total mass removed by rounding
(``hub_deficit``) and add ``s_u[h] * deficit[h]`` back into the residue mass
used by the bound.  With the paper's default ``omega = 1e-6`` the correction
is negligible, but it makes Proposition 4 hold exactly in all configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
import os
from pathlib import Path
import tempfile
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from ..exceptions import SerializationError
from .config import IndexParams
from .hubs import HubSet


@dataclass(frozen=True)
class ColumnarView:
    """Live columnar views over the index, consumed by the vectorized engine.

    A shard's arrays are its working storage, *not* copies: they reflect
    every state write-back immediately and must be treated as read-only by
    callers (write node states through ``index.set_state`` instead).

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
#: can only be read by setting it, so toggling it per write would race under
#: concurrent multi-thread writes.
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
    then the corrections in hub-ink storage order.  Shared by the index's
    write-backs and the store's bulk pass, so every columnar
    ``residual_mass`` entry is computed by exactly one definition.
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
    """Inverse of :func:`params_to_arrays` (the layout's meta archive).

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
    state: "StateArrays",
    hubs: HubSet,
    hub_matrix: sp.csc_matrix,
    n_nodes: int,
) -> np.ndarray:
    """Dense ``p^t = w + P_H s`` of a state (Eq. 7), one hub column at a time."""
    vector = np.zeros(n_nodes, dtype=np.float64)
    keys, values = state.retained
    vector[keys] = values
    for hub, ink in zip(*(segment.tolist() for segment in state.hub_ink)):
        position = hubs.position(hub)
        start, stop = hub_matrix.indptr[position], hub_matrix.indptr[position + 1]
        vector[hub_matrix.indices[start:stop]] += ink * hub_matrix.data[start:stop]
    return vector


#: The three sparse per-node planes, in flattened-layout order.
STATE_PLANES = ("residual", "retained", "hub_ink")

#: The canonical flattened state layout (one array per name): what a
#: :class:`~repro.core.statestore.ColumnarStateStore` holds and the on-disk
#: layout persists as per-shard ``.npy`` files.  ``P̂`` is not among them:
#: its one copy is the shard's ``(K, n)`` columnar ``lower`` plane.
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
    def from_flat(cls, arrays, lower: np.ndarray, node: int) -> "StateArrays":
        """Slice ``node``'s row out of the flattened state-array layout.

        ``lower_bounds`` is a view of ``node``'s column of the ``(K, n)``
        plane ``lower`` — lazy when the plane is memory-mapped.
        """
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
            np.asarray(lower[:, node]),
            int(arrays["iterations"][node]),
            bool(arrays["is_hub"][node]),
        )
