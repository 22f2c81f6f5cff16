"""Ink-propagation kernel (Algorithm 1 core): one blocked sparse engine.

Every component that moves BCA ink — offline index construction, the dynamic
maintainer's invalidation rebuilds, and query-time candidate refinement —
goes through one :class:`PropagationKernel` instead of hand-rolling the
propagation loop.

Full runs
---------
:meth:`PropagationKernel.run` advances the sources in chunks of
:data:`CHUNK_WIDTH`.  A chunk's residual and retained planes are sparse CSC
matrices (one column per source), so memory and per-iteration cost follow the
live residue frontier rather than ``n * CHUNK_WIDTH``; only the hub-ink plane
is dense, ``(|H|, CHUNK_WIDTH)``.  Each chunk runs to full convergence before
the next starts.  Every iteration is element-wise arithmetic on the CSC
``data`` vector plus one sparse-sparse product ``A @ ((1-alpha) * active)``,
which SciPy accumulates column by column.

Per-source bitwise determinism
------------------------------
A chunk column only ever reads and writes its own column, and every column
keeps its entries in ascending order (see :meth:`PropagationKernel._converge`
for why that needs saying), so a source produces the *bit-identical*
trajectory, iteration count and bounds whichever other sources share its
chunk and in whatever order they come.  That is what
lets the dynamic maintainer rebuild invalidated nodes as one run, and the
builder split the node range into shards and pool tasks, while both stay
bit-identical to a serial single-shard build.  Against the seed's per-node
dict loop (kept under ``tests/`` as the reference oracle) the kernel agrees
to floating-point accumulation order: reconstructions within ``1e-12`` and
tie-aware equal top-K sets.

Spill
-----
A converged chunk spills as flat ``(counts, keys, values)`` segments into a
:class:`~repro.core.statestore.StateArraysSink` (the sorted CSC columns *are*
those segments) and ``run`` returns the sink's
:class:`~repro.core.statestore.CollectedStates`, plain arrays with no
per-source object.  With a hub matrix the
spill also materializes each source's top-K lower bounds from
``p^t = w + P_H s`` (Eq. 7).  A chunk carrying hub ink is expanded on dense
sub-chunks of at most :data:`SPILL_BYTES` — retained entries first, then hub
columns in ascending position order, exactly the accumulation order of
:func:`~repro.core.index.expand_state` — so the maintainer's hub re-expansion
reproduces the stored bounds bit for bit.  A chunk without hub ink needs no
expansion: its bounds are each retained column sorted descending.

Query-time refinement (:class:`RefinementWorkingSet`)
-----------------------------------------------------
Refining one candidate (Algorithm 4, line 13) is not a chunk run: its state
is loaded once from flat segments into dense scratch borrowed from a
:class:`KernelWorkspace`, advanced in place by :meth:`PropagationKernel.step`
and spilled back once, only on a write-back.  A step has no threshold: every
node holding residue pushes, so the mass shrinks to ``1 - alpha`` of itself
per step; ``eta`` governs index construction only.
"""

from __future__ import annotations

from dataclasses import dataclass
import time
from typing import Dict, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from ..obs.profiler import NULL_PROFILER
from ..utils.sparsetools import csc_matvec, gather_rows
from ..utils.timer import StageTimer
from ..utils.workspace import ArrayWorkspace
from .config import IndexParams
from .hubs import HubSet
from .index import StateArrays, expand_state
from .statestore import CollectedStates, StateArraysSink

#: Sources advanced together by one chunk of :meth:`PropagationKernel.run`.
#: Results do not depend on it (per-source determinism); it trades the
#: per-iteration Python overhead against the chunk's sparse working set.
CHUNK_WIDTH = 256

#: Byte cap on the dense ``(n, m)`` scratch a hub-ink spill expands on: the
#: sub-chunk width ``m`` is ``SPILL_BYTES // (8 * n)`` (at least one column),
#: so memory stays bounded on million-node graphs.
SPILL_BYTES = 64 << 20

class KernelWorkspace(ArrayWorkspace):
    """Reusable dense scratch for query-time refinement working sets.

    :class:`RefinementWorkingSet` borrows its ``n``-vectors from here and
    hands them back all-zero, so refining candidate after candidate allocates
    nothing.  Buffers only grow, and each thread sees its own set, so the
    kernel's one workspace serves an engine answering concurrent read-only
    queries.  Only refinement borrows from it: :meth:`PropagationKernel.run`
    works on sparse planes.
    """


def _flat_columns(
    matrix: np.ndarray, columns: np.ndarray, labels: Optional[np.ndarray] = None
) -> tuple:
    """Flat ``(counts, keys, values)`` segments for a batch of dense columns.

    One ``np.nonzero`` gather: segment ``i`` holds the (key, value) pairs of
    ``columns[i]`` in ascending-key order.
    """
    sub = matrix.T[columns]  # (m, n): one gathered, C-contiguous row per column
    rows, entries = np.nonzero(sub)
    keys = entries if labels is None else labels[entries]
    keys = np.asarray(keys, dtype=np.int64)
    values = sub[rows, entries]
    counts = np.bincount(rows, minlength=columns.size).astype(np.int64)
    return counts, keys, values


def _batched_top_k(vectors: np.ndarray, k: int) -> np.ndarray:
    """Column-wise :func:`~repro.utils.sparsetools.top_k_descending`: ``(k, m)`` for an ``(n, m)`` input.

    Produces exactly the values ``top_k_descending`` would per column — the
    ``k`` largest entries in descending order, zero-padded below ``k``.
    """
    n, m = vectors.shape
    if k >= n:
        ordered = np.sort(vectors, axis=0)[::-1]
        if k > n:
            ordered = np.vstack([ordered, np.zeros((k - n, m), dtype=np.float64)])
        return ordered
    largest = np.partition(vectors, n - k, axis=0)[n - k :]
    return np.sort(largest, axis=0)[::-1]


class _HubExpansion:
    """Expands a node state into a dense approximate proximity vector.

    Thin helper shared by the dynamic maintainer's hub re-expansion and the
    single-node rebuild path (:func:`~repro.core.lbi.rebuild_node_state`).
    """

    def __init__(self, n_nodes: int, hubs: HubSet, hub_matrix: sp.csc_matrix) -> None:
        self.n_nodes = n_nodes
        self.hubs = hubs
        self.hub_matrix = hub_matrix

    def expand(self, state) -> np.ndarray:
        return expand_state(state, self.hubs, self.hub_matrix, self.n_nodes)


# ----------------------------------------------------------------------- #
# build report
# ----------------------------------------------------------------------- #
@dataclass(frozen=True)
class BuildReport:
    """Per-phase cost breakdown of one index build.

    Attributes
    ----------
    n_nodes / n_targets:
        Graph size and how many nodes were actually (re)indexed.
    stage_seconds:
        Seconds per phase: ``hub_matrix`` (exact hub proximities + rounding),
        ``bca`` (ink propagation) and ``materialize`` (hub expansion and
        top-K extraction).  For parallel builds the worker-side propagation
        and materialization are both accounted under ``bca`` (the pool's
        wall-clock), and ``materialize`` covers only the parent-side merge.
    """

    n_nodes: int
    n_targets: int
    stage_seconds: Dict[str, float]

    @property
    def build_seconds(self) -> float:
        """Total build cost — exactly the sum of the recorded phases."""
        return float(sum(self.stage_seconds.values()))

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready representation."""
        return {
            "n_nodes": self.n_nodes,
            "n_targets": self.n_targets,
            "stage_seconds": dict(self.stage_seconds),
            "build_seconds": self.build_seconds,
        }


# ----------------------------------------------------------------------- #
# the kernel
# ----------------------------------------------------------------------- #
class PropagationKernel:
    """One entry point for all BCA ink movement over a fixed transition matrix.

    Parameters
    ----------
    transition:
        Column-stochastic CSC transition matrix.
    hub_mask:
        Boolean mask marking hub nodes (ink arriving there is parked).
    params:
        :class:`IndexParams` (``alpha``, ``eta``, ``delta``, ``K`` and the
        iteration cap).
    hubs / hub_matrix:
        The hub set and its proximity columns ``P_H``.  When given, states
        produced by :meth:`run` have their top-K lower bounds materialized;
        without them the kernel only propagates (callers materialize later).
    profiler:
        Optional profiling sink (:class:`~repro.obs.profiler.KernelProfiler`
        or compatible).  Defaults to the shared no-op sink; hot paths check
        its ``enabled`` flag once per run, so the disabled cost is nil.
    """

    def __init__(
        self,
        transition: sp.spmatrix,
        hub_mask: np.ndarray,
        params: IndexParams,
        *,
        hubs: Optional[HubSet] = None,
        hub_matrix: Optional[sp.csc_matrix] = None,
        profiler=None,
    ) -> None:
        self.transition = sp.csc_matrix(transition)
        self.hub_mask = np.asarray(hub_mask, dtype=bool)
        self.params = params
        self.workspace = KernelWorkspace()
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.hubs = hubs
        self.hub_matrix = hub_matrix.tocsc() if hub_matrix is not None else None
        self.expansion: Optional[_HubExpansion] = None
        if self.hubs is not None and self.hub_matrix is not None:
            self.expansion = _HubExpansion(self.n_nodes, self.hubs, self.hub_matrix)
        self._hub_nodes = np.flatnonzero(self.hub_mask)

    def __getstate__(self) -> dict:
        # Refinement scratch is per-process: a copy borrows from its own.
        state = self.__dict__.copy()
        state["workspace"] = KernelWorkspace()
        return state

    @property
    def n_nodes(self) -> int:
        """Number of nodes covered by the transition matrix."""
        return self.transition.shape[0]

    # ------------------------------------------------------------------ #
    # full runs (index construction, invalidation rebuilds)
    # ------------------------------------------------------------------ #
    def run(
        self,
        sources: Sequence[int],
        *,
        stages: Optional[StageTimer] = None,
    ) -> CollectedStates:
        """Run BCA to convergence from every (non-hub) source node.

        Returns the converged states as flat segments, one row per source in
        convergence order (``.state_arrays()`` pairs each with its source).
        ``stages`` accumulates ``bca`` / ``materialize`` phase timings.
        """
        sources = [int(source) for source in sources]
        for source in sources:
            if self.hub_mask[source]:
                raise ValueError(
                    f"node {source} is a hub; hub states are built from the "
                    "exact hub proximities, not with BCA"
                )
        if stages is None:
            stages = StageTimer()
        stages.add("bca", 0.0)
        stages.add("materialize", 0.0)
        sink = StateArraysSink(self.params.capacity)
        if not sources:
            return sink.collected()
        prof = self.profiler if self.profiler.enabled else None
        peak = 0
        for chunk_start in range(0, len(sources), CHUNK_WIDTH):
            chunk = np.asarray(
                sources[chunk_start : chunk_start + CHUNK_WIDTH], dtype=np.int64
            )
            with stages.time("bca"):
                residual, retained, hub_ink, iterations, chunk_peak = (
                    self._converge(chunk, prof)
                )
            peak = max(peak, chunk_peak)
            with stages.time("materialize"):
                spill_start = time.perf_counter() if prof is not None else 0.0
                self._spill(chunk, residual, retained, hub_ink, iterations, sink)
                if prof is not None:
                    prof.on_spill(
                        n_sources=int(chunk.size),
                        seconds=time.perf_counter() - spill_start,
                    )
        if prof is not None:
            prof.on_run(
                n_sources=len(sources),
                plane_bytes=peak,
                workspace=self.workspace.stats(),
            )
        return sink.collected()

    def _converge(self, chunk: np.ndarray, prof) -> tuple:
        """Run one chunk of sources to convergence on sparse CSC planes.

        Returns ``(residual, retained, hub_ink, iterations, peak_bytes)``.
        All per-iteration arithmetic is element-wise on the CSC ``data``
        vector or per-column sparse algebra.  That alone does not make a
        source's trajectory independent of its chunk mates: a sparse product
        sums each output entry in its column's *entry order*, and SciPy's
        sparse sum picks its kernel — and with it whether output columns come
        out sorted — from the sortedness of the whole operands.  Every plane
        therefore enters each sum with sorted indices, so every column's entry
        order is ascending whatever its mates hold, and every source's
        trajectory is bitwise independent of its chunk mates.
        """
        params = self.params
        n = self.n_nodes
        eta = params.propagation_threshold
        delta = params.residue_threshold
        alpha = params.alpha
        scale = 1.0 - alpha
        max_iterations = params.max_index_iterations
        hub_nodes = self._hub_nodes
        matrix = self.transition
        width = int(chunk.size)
        peak = 0
        residual = sp.csc_matrix(
            (
                np.ones(width, dtype=np.float64),
                (chunk, np.arange(width, dtype=np.int64)),
            ),
            shape=(n, width),
        )
        retained = sp.csc_matrix((n, width), dtype=np.float64)
        hub_ink = np.zeros((hub_nodes.size, width), dtype=np.float64)
        iterations = np.zeros(width, dtype=np.int64)
        alive = np.ones(width, dtype=bool)
        while True:
            data = residual.data
            indptr = residual.indptr
            counts = np.diff(indptr)
            # Per-column residue mass via reduceat over the nonempty
            # segments: empty columns contribute no data between consecutive
            # nonempty starts, so segment ends line up with column ends —
            # each sum reads only its own column.
            mass = np.zeros(width, dtype=np.float64)
            nonempty = np.flatnonzero(counts)
            if nonempty.size:
                mass[nonempty] = np.add.reduceat(data, indptr[:-1][nonempty])
            active = data >= eta
            col_of = np.repeat(np.arange(width, dtype=np.int64), counts)
            has_active = np.bincount(col_of[active], minlength=width) > 0
            stepping = (
                alive & has_active & (mass > delta) & (iterations < max_iterations)
            )
            if not stepping.any():
                break
            alive = stepping
            iteration_start = time.perf_counter() if prof is not None else 0.0
            take = active & stepping[col_of]
            amounts = np.where(take, data, 0.0)
            # Pre-scale the pushed shares so the per-edge product is
            # weight * ((1-alpha) * amount) — the same association as the
            # seed loop's ``share * weight``.
            shares = sp.csc_matrix(
                (amounts * scale, residual.indices.copy(), indptr.copy()),
                shape=(n, width),
            )
            shares.eliminate_zeros()
            kept = sp.csc_matrix(
                (amounts * alpha, residual.indices.copy(), indptr.copy()),
                shape=(n, width),
            )
            kept.eliminate_zeros()
            retained = (retained + kept).tocsc()
            residual.data = data - amounts
            residual.eliminate_zeros()
            # SciPy's sparse-sparse product accumulates each output column
            # independently — per-column bitwise determinism survives the
            # chunk composition.
            arrivals = (matrix @ shares).tocsc()
            if hub_nodes.size and arrivals.nnz:
                rows = arrivals.tocsr()
                moved = False
                for position, hub in enumerate(hub_nodes.tolist()):
                    lo, hi = rows.indptr[hub], rows.indptr[hub + 1]
                    if lo == hi:
                        continue
                    hub_ink[position, rows.indices[lo:hi]] += rows.data[lo:hi]
                    rows.data[lo:hi] = 0.0
                    moved = True
                if moved:
                    rows.eliminate_zeros()
                    arrivals = rows.tocsc()
            # SciPy adds two CSC matrices with its sorted-merge kernel only
            # when *both whole matrices* have sorted indices; otherwise its
            # general kernel leaves every output column unsorted, and the
            # next product sums each column in that entry order.  Sorting
            # the arrivals keeps the sum on the sorted path, so a column's
            # entry order — and its floats — never depend on its chunk mates.
            arrivals.sort_indices()
            residual = (residual + arrivals).tocsc()
            iterations[stepping] += 1
            live_bytes = hub_ink.nbytes + sum(
                plane.data.nbytes + plane.indices.nbytes + plane.indptr.nbytes
                for plane in (residual, retained)
            )
            peak = max(peak, int(live_bytes))
            if prof is not None:
                prof.on_block_iteration(
                    n_live=int(np.count_nonzero(stepping)),
                    seconds=time.perf_counter() - iteration_start,
                )
        return residual, retained, hub_ink, iterations, peak

    def _spill(
        self,
        chunk: np.ndarray,
        residual: sp.csc_matrix,
        retained: sp.csc_matrix,
        hub_ink: np.ndarray,
        iterations: np.ndarray,
        sink: StateArraysSink,
    ) -> None:
        """Spill a converged chunk into the sink.

        The CSC columns, once sorted, *are* the flat ``(counts, keys,
        values)`` segments — keys ascending per column.
        """
        width = int(chunk.size)
        residual.eliminate_zeros()
        residual.sort_indices()
        retained.eliminate_zeros()
        retained.sort_indices()
        bounds: Optional[np.ndarray] = None
        if self.hub_matrix is not None:
            if hub_ink.any():
                bounds = self._expanded_bounds(retained, hub_ink)
            else:
                # No hub corrections: the expanded vector is exactly the
                # retained column scattered over zeros, so its top-K is the
                # column's values sorted descending, zero-padded (every
                # retained value is positive and K <= n by construction).
                capacity = self.params.capacity
                bounds = np.zeros((capacity, width), dtype=np.float64)
                for column in range(width):
                    lo, hi = retained.indptr[column], retained.indptr[column + 1]
                    ordered = np.sort(retained.data[lo:hi])[::-1]
                    count = min(ordered.size, capacity)
                    bounds[:count, column] = ordered[:count]
        sink.absorb(
            sources=chunk.copy(),
            iterations=iterations.copy(),
            bounds=np.ascontiguousarray(bounds.T) if bounds is not None else None,
            residual=_csc_segments(residual),
            retained=_csc_segments(retained),
            hub_ink=_flat_columns(
                hub_ink, np.arange(width, dtype=np.int64), self._hub_nodes
            ),
        )

    def _expanded_bounds(
        self, retained: sp.csc_matrix, hub_ink: np.ndarray
    ) -> np.ndarray:
        """Top-K of ``w + P_H s`` per column, ``(K, width)``.

        Expands dense sub-chunks of at most :data:`SPILL_BYTES`: retained
        entries first, then one hub column at a time in ascending position
        order — :func:`~repro.core.index.expand_state`'s accumulation order
        for hub ink stored ascending, which is how every spill stores it.
        """
        n = self.n_nodes
        width = hub_ink.shape[1]
        matrix = self.hub_matrix
        step = max(1, SPILL_BYTES // (8 * n))
        bounds = np.empty((self.params.capacity, width), dtype=np.float64)
        for lo in range(0, width, step):
            hi = min(lo + step, width)
            vectors = retained[:, lo:hi].toarray()
            ink = hub_ink[:, lo:hi]
            for position in np.flatnonzero(ink.any(axis=1)).tolist():
                start, stop = matrix.indptr[position], matrix.indptr[position + 1]
                vectors[matrix.indices[start:stop], :] += (
                    ink[position][None, :] * matrix.data[start:stop, None]
                )
            bounds[:, lo:hi] = _batched_top_k(vectors, self.params.capacity)
        return bounds

    # ------------------------------------------------------------------ #
    # single steps (query-time refinement: one candidate's working set)
    # ------------------------------------------------------------------ #
    def load(self, arrays: StateArrays) -> "RefinementWorkingSet":
        """One node's flat segments as a working set (one live set per thread;
        the caller must :meth:`~RefinementWorkingSet.release` it)."""
        if self.hub_matrix is None:
            raise ValueError(
                "kernel was constructed without hubs/hub_matrix; it cannot "
                "materialize lower bounds"
            )
        return RefinementWorkingSet(self, arrays)

    def step(self, working: "RefinementWorkingSet") -> bool:
        """Advance ``working`` by one batched BCA iteration (Algorithm 4, line 13).

        A frontier push (Eq. 8-9) of **all** residue — one power-iteration
        step on ``r``: every node holding any retains an ``alpha`` share and
        scatters the rest along its out-edges; ink that landed on hubs moves
        to ``s``, and ``v`` and its top-K are refreshed incrementally
        (``v += alpha * amounts + P_H @ delta_s``).

        The scatter is two compiled passes over the pushed edges
        (:func:`_scatter_columns`): a gather of the active CSC columns in
        support order, then one CSC product adding each edge's share in that
        (column, entry) order.  The support's order is itself fixed by the
        rows earlier gathers returned, so every float of the trajectory is
        the one a per-edge ``np.add.at`` in support order gives.  Cost
        follows the residue support and the entries pushed, never ``n`` or
        ``nnz(A)``.  Returns ``False`` (changing nothing) when no residue
        remains.
        """
        active = working.residue > 0.0
        nodes = working.support[active]
        if not nodes.size:
            return False
        # Consume exactly the snapshot amounts (Eq. 9 operates on r_{t-1});
        # ink pushed back onto an active node stays as residue for next time.
        amounts = working.residue[active]
        alpha = self.params.alpha
        residual = working.residual
        residual[nodes] = 0.0
        kept = alpha * amounts
        working.retained[nodes] += kept
        working.vector[nodes] += kept
        targets = _scatter_columns(
            self.transition, nodes, (1.0 - alpha) * amounts, residual
        )
        changed = nodes
        hub_nodes = self._hub_nodes
        if hub_nodes.size:
            # Hub rows hold no residue by invariant, so whatever sits there
            # now is exactly this step's arrivals: park it in s.
            arrived = residual[hub_nodes]
            positions = np.flatnonzero(arrived)
            if positions.size:
                ink = arrived[positions]
                residual[hub_nodes[positions]] = 0.0
                working.hub_ink[positions] += ink
                rows = _scatter_columns(
                    self.hub_matrix, positions, ink, working.vector
                )
                changed = np.concatenate([nodes, rows])
        working.absorb(targets)
        working.refresh(changed)
        working.iterations += 1
        if self.profiler.enabled:
            self.profiler.on_step(
                n_active=int(nodes.size),
                n_support=int(working.support.size),
                n_edges=int(targets.size),
            )
        return True


def _csc_segments(matrix: sp.csc_matrix) -> tuple:
    """A canonical CSC matrix's columns as flat ``(counts, keys, values)``."""
    return (
        np.diff(matrix.indptr).astype(np.int64),
        matrix.indices.astype(np.int64),
        matrix.data,
    )


def _scatter_columns(
    matrix: sp.csc_matrix, columns: np.ndarray, scales: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``out += matrix[:, columns] @ scales`` over the stored entries only.

    Two compiled passes over the pushed entries: a gather of the listed
    columns (:func:`~repro.utils.sparsetools.gather_rows`), then a CSC product
    (:func:`~repro.utils.sparsetools.csc_matvec`) that adds
    ``weight * scale`` into the dense ``out`` one entry at a time in
    (column, entry) order.  That is ``np.add.at``'s order over the same
    gather, and IEEE multiplication commutes, so ``out`` comes out bit for
    bit as the seed loop's ``share * weight`` scatter — into a zero
    residual and into a non-zero ``v`` alike.  Returns the row index of
    every pushed entry (with repeats) in that same order: callers track
    what changed from it, and the support's order, hence every later
    step's accumulation order, comes from it.
    """
    pointers, rows, values = gather_rows(
        matrix.indptr, matrix.indices, matrix.data, columns
    )
    csc_matvec(out.size, columns.size, pointers, rows, values, scales, out)
    return rows


class RefinementWorkingSet:
    """One refinement candidate's BCA state on dense thread-local scratch.

    The residual ``r``, retained ``w`` and expanded vector ``v = w + P_H s``
    are ``n``-vectors borrowed from the kernel's :class:`KernelWorkspace`;
    ``support`` lists every node whose ``r`` or ``w`` may be non-zero, so all
    per-step work gathers through it instead of sweeping ``n``.  The state is
    loaded **once** from flat ``(keys, values)`` segments (copied into the
    scratch — memmapped segments are only ever read), advanced in place by
    :meth:`PropagationKernel.step`, and spilled back **once**, by
    :meth:`spill`, only if the caller writes it back.

    The scratch stays all-zero between borrowers: :meth:`release` clears
    exactly the entries this set touched, so neither loading nor releasing
    costs ``O(n)``; a borrower that died without releasing leaves ``busy`` up
    and the next load pays one full clear instead.
    """

    def __init__(self, kernel: PropagationKernel, arrays: StateArrays) -> None:
        n = kernel.n_nodes
        ws = kernel.workspace
        self._busy = ws.clean("refine_busy", 1, bool)
        self.residual = ws.clean("refine_residual", n)
        self.retained = ws.clean("refine_retained", n)
        self.vector = ws.clean("refine_vector", n)
        self._seen = ws.clean("refine_seen", n, bool)
        if self._busy[0]:
            for plane in (self.residual, self.retained, self.vector, self._seen):
                plane.fill(0)
        self._busy[0] = True
        # Written before every read, so it needs no clearing (see _distinct).
        self._stamp = ws.take("refine_stamp", n, np.int64)
        self.capacity = int(kernel.params.capacity)
        self.iterations = int(arrays.iterations)
        self.is_hub = bool(arrays.is_hub)
        self._hub_nodes = kernel._hub_nodes
        self._hub_matrix = kernel.hub_matrix

        residual_keys, residual_values = arrays.residual
        retained_keys, retained_values = arrays.retained
        self.residual[residual_keys] = residual_values
        self.retained[retained_keys] = retained_values
        self.vector[retained_keys] = retained_values
        self.support = self._distinct(np.concatenate([residual_keys, retained_keys]))
        self._seen[self.support] = True
        self.residue = self.residual[self.support]

        # Hub ink, dense by hub position; expanded through P_H one column at
        # a time in storage order (the order _HubExpansion.expand uses).
        hub_keys, hub_values = arrays.hub_ink
        self.hub_ink = np.zeros(self._hub_nodes.size, dtype=np.float64)
        positions = np.searchsorted(self._hub_nodes, hub_keys)
        self.hub_ink[positions] = hub_values
        rows = _scatter_columns(
            self._hub_matrix,
            positions,
            np.asarray(hub_values, dtype=np.float64),
            self.vector,
        )
        self.top = np.zeros(0, dtype=np.int64)
        self.lower_bounds = np.zeros(self.capacity, dtype=np.float64)
        self.refresh(np.concatenate([retained_keys, rows]))

    def _distinct(self, nodes: np.ndarray) -> np.ndarray:
        """``nodes`` without repeats, unsorted: no sort, no hashing, no sweep.

        Each node's stamp ends up holding the position of its *last*
        occurrence (repeated fancy-index assignment keeps the last value),
        so exactly one occurrence per node reads its own position back.
        """
        order = np.arange(nodes.size)
        self._stamp[nodes] = order
        return nodes[self._stamp[nodes] == order]

    # -- reads ------------------------------------------------------------
    @property
    def is_exact(self) -> bool:
        """True when no residue remains (the lower bounds are exact values)."""
        return self.is_hub or not self.residue.any()

    def residual_mass(self, hub_deficit: np.ndarray) -> float:
        """``||r||_1`` plus the hub rounding-deficit correction ``s . deficit``."""
        mass = float(self.residue.sum())
        if self.hub_ink.size:
            mass += float(self.hub_ink @ hub_deficit)
        return mass

    # -- updates (driven by PropagationKernel.step) -----------------------
    def absorb(self, targets: np.ndarray) -> None:
        """Extend the support by freshly reached nodes; re-read the residue."""
        reached = np.take(self._seen, targets)
        if not reached.all():
            fresh = self._distinct(targets[~reached])
            self._seen[fresh] = True
            self.support = np.concatenate([self.support, fresh])
        self.residue = self.residual[self.support]

    def refresh(self, changed: np.ndarray) -> None:
        """Re-derive the top-K of ``v`` after the entries ``changed`` grew.

        Entries of ``v`` only ever grow, so the new top-K is contained in the
        old top-K plus those changed entries that now exceed the old K-th
        value (Eq. 7 without the sweep over ``n``).
        """
        vector = self.vector
        risen = changed[vector[changed] > self.lower_bounds[-1]]
        candidates = self._distinct(np.concatenate([self.top, risen]))
        values = vector[candidates]
        surplus = candidates.size - self.capacity
        if surplus > 0:
            keep = np.argpartition(values, surplus)[surplus:]
            candidates, values = candidates[keep], values[keep]
        order = np.argsort(values)[::-1]
        self.top = candidates[order]
        self.lower_bounds = np.zeros(self.capacity, dtype=np.float64)
        self.lower_bounds[: order.size] = values[order]

    # -- hand-back --------------------------------------------------------
    def spill(self) -> StateArrays:
        """The current state as flat segments (ascending keys, zeros dropped)."""
        support = np.sort(self.support)
        planes = []
        for plane in (self.residual, self.retained):
            values = plane[support]
            keep = values != 0.0
            planes.append((support[keep], values[keep]))
        positions = np.flatnonzero(self.hub_ink)
        planes.append((self._hub_nodes[positions], self.hub_ink[positions]))
        return StateArrays(
            *planes, self.lower_bounds.copy(), self.iterations, self.is_hub
        )

    def release(self) -> None:
        """Hand the scratch back all-zero (clears only what was touched)."""
        support = self.support
        self.residual[support] = 0.0
        self.retained[support] = 0.0
        self.vector[support] = 0.0
        self._seen[support] = False
        # v also holds the expansion of every hub column with ink in s.
        hub_matrix = self._hub_matrix
        _, rows, _ = gather_rows(
            hub_matrix.indptr, hub_matrix.indices, hub_matrix.data,
            np.flatnonzero(self.hub_ink),
        )
        self.vector[rows] = 0.0
        self._busy[0] = False
