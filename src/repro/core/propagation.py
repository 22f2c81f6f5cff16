"""Unified ink-propagation kernel: one layer, three backends (Algorithm 1 core).

Every component that moves BCA ink — offline index construction, the dynamic
maintainer's invalidation rebuilds, and query-time candidate refinement —
goes through one :class:`PropagationKernel` instead of hand-rolling the
propagation loop.  The kernel offers interchangeable backends selected
via :attr:`IndexParams.backend`:

``"scalar"``
    The original dict-based per-neighbour loop (:func:`bca_iteration`), kept
    bit-identical to the seed implementation.  It remains the build loop of
    this backend and the reference oracle of the equivalence tests.

``"vectorized"``
    A blocked multi-source engine.  The residual / retained / hub-ink state
    of a block of ``B`` source nodes is held as dense ``(n, B)`` float64
    arrays and *all* sources advance together per iteration with a single
    sparse-dense product ``A @ ((1-alpha) * active)`` — eta-thresholding,
    alpha retention and the hub-mask split are whole-array operations.
    Sources that converge are spilled as flat segments and their block
    column is refilled from the pending worklist, so stragglers never hold
    the whole block hostage.

``"numba"``
    The blocked engine with its per-iteration inner loop JIT-compiled
    (:mod:`repro.core._numba_kernels`): column statistics and the snapshot /
    retain / scatter / hub-split sequence run as one fused parallel pass per
    iteration instead of a chain of whole-array NumPy operations.  Requires
    the optional ``fast`` extra; constructing a kernel without it raises
    :class:`~repro.exceptions.ConfigurationError`
    (see :func:`repro.core.backends.available_backends`).

``"sparse"``
    A blocked multi-source engine whose per-block state is held as *sparse*
    CSC matrices instead of dense ``(n, B)`` planes.  Memory and per-
    iteration cost scale with the live residue frontier rather than with
    ``n * B``, which is what makes million-node builds feasible: the dense
    planes alone would cost ``~40 * B`` bytes per node.  Each chunk of ``B``
    sources runs to full convergence (no mid-stream refill); per-column
    arithmetic is element-wise or per-column sparse products, so — like the
    dense backends — every source's trajectory is bitwise independent of
    which other sources share its chunk.  Agreement with the scalar
    reference is to tolerance (like the dense backends), not bit-for-bit.

One outlet
----------
:meth:`PropagationKernel.run` has one outlet: a
:class:`~repro.core.statestore.StateArraysSink`.  Converged columns spill as
flat ``(counts, keys, values)`` segments (ascending keys, one ``np.nonzero``
gather per batch) and ``run`` returns the sink's
:class:`~repro.core.statestore.CollectedStates`, which callers assemble into
a columnar store — the blocked backends construct no :class:`NodeState` at
all.  The scalar reference backend works on dicts natively and flattens each
finished state into the same sink (entries keep their dict order).

Buffer reuse (:class:`KernelWorkspace`)
---------------------------------------
Both blocked backends draw their dense ``(n, B)`` planes from a
:class:`KernelWorkspace` — a thread-local, grow-only scratch pool — and the
per-iteration sparse-dense product accumulates **in place** into the residual
plane via SciPy's low-level ``csc_matvecs`` routine, so the steady-state
iteration allocates nothing.  Long-lived owners (the query engine, the
dynamic maintainer, the per-process build workers) keep one workspace and
reuse it across every run, block and refinement working set.  Passing
``reuse_buffers=False`` restores the historical allocate-per-iteration
behaviour (useful for A/B benchmarks); the in-place product accumulates
arrivals in a different order than the legacy ``residual += transition @
shares``, so the two modes agree to the backend tolerance rather than bit
for bit.

Per-source bitwise determinism
------------------------------
Each block column only ever reads and writes its own column: element-wise
operations are element-wise, row/column reductions are per-column, and
SciPy's sparse-dense product accumulates each output column independently in
ascending matrix-column order.  A source therefore produces the *bit-identical*
trajectory no matter which other sources share its block — which is what lets
the dynamic maintainer rebuild invalidated nodes as one block, and the
parallel snapshot builder shard the node range across processes, while both
stay bit-identical to a serial from-scratch build under the same backend.

The vectorized and scalar backends agree to floating-point accumulation
order: reconstructed proximity vectors match within ``1e-12`` with identical
top-K node sets (enforced by a Hypothesis property test), but are not
bitwise equal — accumulation order across a batch necessarily differs.

Query-time refinement (:class:`RefinementWorkingSet`)
-----------------------------------------------------
Refining one candidate (Algorithm 4, line 13) is not a block run: its state
is loaded once from flat segments into dense workspace scratch, advanced in
place by :meth:`PropagationKernel.step` — whatever backend built the index —
and spilled back once, only on a write-back.  A step has no threshold: every
node holding residue pushes, so the mass shrinks to ``1 - alpha`` of itself
per step; ``eta`` governs index construction only.
"""

from __future__ import annotations

from dataclasses import dataclass
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from ..obs.profiler import NULL_PROFILER
from ..utils.sparsetools import top_k_descending
from ..utils.timer import StageTimer
from ..utils.workspace import ArrayWorkspace
from .config import PROPAGATION_BACKENDS, IndexParams
from .hubs import HubSet
from .index import NodeState, StateArrays, expand_state
from .statestore import CollectedStates, StateArraysSink

try:  # pragma: no cover - exercised implicitly by every blocked run
    # Low-level accumulating sparse-dense product: Y += A @ X with caller-
    # owned output storage.  Private but stable (it backs scipy's own @);
    # guard the import so a reorganised SciPy degrades to the allocating
    # product instead of breaking the kernel.
    from scipy.sparse import _sparsetools as _scipy_sparsetools

    _CSC_MATVECS = getattr(_scipy_sparsetools, "csc_matvecs", None)
except ImportError:  # pragma: no cover
    _CSC_MATVECS = None

#: Progress hook invoked with the source node id as each source converges.
SourceCallback = Callable[[int], None]


class KernelWorkspace(ArrayWorkspace):
    """Reusable scratch planes for the blocked propagation backends.

    One workspace preallocates the ``(n, B)`` residual / retained / hub-ink /
    active / amounts / shares planes (plus the per-column bookkeeping
    vectors) the first time a kernel runs and hands the same storage back on
    every subsequent run and block; query-time refinement borrows its dense
    ``n``-vectors from the same pool (:class:`RefinementWorkingSet`).  Buffers
    only grow, and each thread sees its own set, so a workspace may be
    shared by an engine serving concurrent read-only queries.

    Kernels create a private workspace by default; pass one explicitly to
    share buffers across kernels with compatible lifetimes (e.g. the dynamic
    maintainer's incremental rebuilds, or a per-process build worker).
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


def _emit_states(
    sources: np.ndarray,
    iterations: np.ndarray,
    bounds: Optional[np.ndarray],
    planes: Sequence[tuple],
    on_done: Optional["SourceCallback"],
    sink: StateArraysSink,
) -> None:
    """Hand one converged batch to the sink.

    ``planes`` are the residual / retained / hub-ink ``(counts, keys,
    values)`` triples aligned with ``sources``; ``bounds`` is ``(K, m)``.
    """
    residual, retained, hub_ink = planes
    sink.absorb(
        sources=sources.copy(),
        iterations=iterations.copy(),
        bounds=np.ascontiguousarray(bounds.T) if bounds is not None else None,
        residual=residual,
        retained=retained,
        hub_ink=hub_ink,
    )
    if on_done is not None:
        for source in sources.tolist():
            on_done(source)


def _batched_top_k(vectors: np.ndarray, k: int) -> np.ndarray:
    """Column-wise :func:`top_k_descending`: ``(k, m)`` for an ``(n, m)`` input.

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


# ----------------------------------------------------------------------- #
# scalar primitives (the seed implementation, moved here verbatim)
# ----------------------------------------------------------------------- #
def bca_iteration(
    state: NodeState,
    transition: sp.csc_matrix,
    hub_mask: np.ndarray,
    params: IndexParams,
    *,
    propagation_threshold: Optional[float] = None,
) -> bool:
    """Run one batched BCA iteration in place (Eq. 6, 8, 9).

    Returns ``True`` when at least one node propagated ink, ``False`` when no
    non-hub node holds ``eta`` or more residue (the state cannot be refined
    further at this threshold).  ``propagation_threshold`` overrides the
    configured ``eta`` for a single step (tests mirror the threshold-free
    :meth:`PropagationKernel.step` with the smallest positive float).
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
        # ...and push the rest to out-neighbours (transition column = node).
        start, stop = indptr[node], indptr[node + 1]
        if start == stop:
            # Dangling nodes never occur with the default self-loop policy,
            # but guard anyway: the (1-alpha) share is simply lost as residue.
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


def initial_node_state(node: int, is_hub: bool) -> NodeState:
    """Fresh BCA state for ``node``: one unit of residue ink at the node itself.

    Hub nodes do not run BCA; their state simply references their own exact
    hub column (``s = e_node``), so the reconstructed vector is ``P_H e_node``.
    """
    if is_hub:
        return NodeState(hub_ink={int(node): 1.0}, is_hub=True)
    return NodeState(residual={int(node): 1.0})


def run_node_bca(
    state: NodeState,
    transition: sp.csc_matrix,
    hub_mask: np.ndarray,
    params: IndexParams,
    *,
    max_iterations: Optional[int] = None,
) -> NodeState:
    """Run batched BCA on ``state`` until the residue drops below ``delta``.

    The loop also stops when no node reaches the propagation threshold or the
    iteration cap is hit, whichever comes first.
    """
    if max_iterations is None:
        max_iterations = params.max_index_iterations
    while state.residual_mass > params.residue_threshold and state.iterations < max_iterations:
        if not bca_iteration(state, transition, hub_mask, params):
            break
    return state


class _HubExpansion:
    """Expands a node state into a dense approximate proximity vector.

    Thin helper shared by index construction (before the
    :class:`ReverseTopKIndex` exists) and by query-time refinement (where the
    index itself provides the hub matrix).
    """

    def __init__(self, n_nodes: int, hubs: HubSet, hub_matrix: sp.csc_matrix) -> None:
        self.n_nodes = n_nodes
        self.hubs = hubs
        self.hub_matrix = hub_matrix

    def expand(self, state: NodeState) -> np.ndarray:
        return expand_state(state, self.hubs, self.hub_matrix, self.n_nodes)


def materialize_lower_bounds(
    state: NodeState, index_like: _HubExpansion, capacity: int
) -> None:
    """Recompute ``state.lower_bounds`` from the current ``w`` and ``s`` (Eq. 7)."""
    vector = index_like.expand(state)
    state.lower_bounds = top_k_descending(vector, capacity)


# ----------------------------------------------------------------------- #
# build report
# ----------------------------------------------------------------------- #
@dataclass(frozen=True)
class BuildReport:
    """Per-phase cost breakdown of one index build.

    Attributes
    ----------
    backend:
        Propagation backend the build ran with.
    block_size:
        Multi-source block width (meaningful for the vectorized backend).
    n_nodes / n_targets:
        Graph size and how many nodes were actually (re)indexed.
    stage_seconds:
        Seconds per phase: ``hub_matrix`` (exact hub proximities + rounding),
        ``bca`` (ink propagation) and ``materialize`` (hub expansion and
        top-K extraction).  For parallel builds the worker-side propagation
        and materialization are both accounted under ``bca`` (the pool's
        wall-clock), and ``materialize`` covers only the parent-side merge.
    """

    backend: str
    block_size: int
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
            "backend": self.backend,
            "block_size": self.block_size,
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
        :class:`IndexParams`; ``params.backend`` selects the implementation
        and ``params.block_size`` bounds the vectorized block width.
    hubs / hub_matrix:
        The hub set and its proximity columns ``P_H``.  When given, states
        produced by :meth:`run` have their top-K lower bounds materialized;
        without them the kernel only propagates (callers materialize later).
    backend:
        Optional override of ``params.backend`` for this kernel instance.
    workspace:
        Optional :class:`KernelWorkspace` to draw scratch planes from; by
        default the kernel owns a private one.  Pass a shared workspace when
        several kernels with compatible lifetimes should reuse buffers.
    reuse_buffers:
        When ``False``, the blocked run allocates fresh planes per run and
        a fresh arrivals array per iteration (the historical behaviour) —
        kept for A/B benchmarking of the workspace; leave ``True`` otherwise.
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
        backend: Optional[str] = None,
        workspace: Optional[KernelWorkspace] = None,
        reuse_buffers: bool = True,
        profiler=None,
    ) -> None:
        self.transition = sp.csc_matrix(transition)
        self.hub_mask = np.asarray(hub_mask, dtype=bool)
        self.params = params
        self.backend = params.backend if backend is None else backend
        if self.backend not in PROPAGATION_BACKENDS:
            raise ValueError(
                f"backend must be one of {PROPAGATION_BACKENDS}, got {self.backend!r}"
            )
        if self.backend == "numba":
            # Raises ConfigurationError with an install hint when the
            # optional extra is missing — never a deep ImportError.
            from .backends import load_numba_kernels

            self._jit = load_numba_kernels()
        else:
            self._jit = None
        self.workspace = workspace if workspace is not None else KernelWorkspace()
        self.reuse_buffers = bool(reuse_buffers)
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.hubs = hubs
        self.hub_matrix = hub_matrix.tocsc() if hub_matrix is not None else None
        self.expansion: Optional[_HubExpansion] = None
        if self.hubs is not None and self.hub_matrix is not None:
            self.expansion = _HubExpansion(self.n_nodes, self.hubs, self.hub_matrix)
        self._hub_nodes = np.flatnonzero(self.hub_mask)
        self._hub_position: Optional[np.ndarray] = None
        if self._jit is not None:
            # node id -> hub row (or -1): the compiled iteration splits hub
            # arrivals inline instead of post-hoc masking.
            self._hub_position = np.full(self.n_nodes, -1, dtype=np.int64)
            self._hub_position[self._hub_nodes] = np.arange(
                self._hub_nodes.size, dtype=np.int64
            )

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
        on_done: Optional[SourceCallback] = None,
    ) -> CollectedStates:
        """Run BCA to convergence from every (non-hub) source node.

        Returns the converged states as flat segments, one row per source in
        convergence order (``.state_arrays()`` pairs each with its source).
        ``stages`` accumulates ``bca`` / ``materialize`` phase timings;
        ``on_done`` fires once per source as it converges (progress hook).
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
        self._sparse_peak_bytes = 0
        if self.backend in ("vectorized", "numba"):
            self._run_vectorized(sources, stages, on_done, sink)
        elif self.backend == "sparse":
            self._run_sparse(sources, stages, on_done, sink)
        else:
            self._run_scalar(sources, stages, on_done, sink)
        if self.profiler.enabled:
            plane_bytes = 0
            if self.backend in ("vectorized", "numba"):
                block = max(1, min(int(self.params.block_size), len(sources)))
                n_dense = 3 if self._jit is not None else 5
                plane_bytes = (
                    self.n_nodes * block * 8 * n_dense
                    + self._hub_nodes.size * block * 8
                )
            elif self.backend == "sparse":
                plane_bytes = self._sparse_peak_bytes
            self.profiler.on_run(
                backend=self.backend,
                n_sources=len(sources),
                plane_bytes=plane_bytes,
                workspace=self.workspace.stats(),
            )
        return sink.collected()

    def _run_scalar(
        self,
        sources: List[int],
        stages: StageTimer,
        on_done: Optional[SourceCallback],
        sink: StateArraysSink,
    ) -> None:
        """Per-source reference path — bit-identical to the seed build loop."""
        for source in sources:
            state = initial_node_state(source, False)
            with stages.time("bca"):
                run_node_bca(state, self.transition, self.hub_mask, self.params)
            bounds = None
            if self.expansion is not None:
                with stages.time("materialize"):
                    materialize_lower_bounds(state, self.expansion, self.params.capacity)
                bounds = state.lower_bounds[:, None]
            flat = StateArrays.from_state(state)
            _emit_states(
                np.array([source]),
                np.array([state.iterations]),
                bounds,
                [
                    (np.array([keys.size]), keys, values)
                    for keys, values in (flat.residual, flat.retained, flat.hub_ink)
                ],
                on_done,
                sink,
            )

    def _run_vectorized(
        self,
        sources: List[int],
        stages: StageTimer,
        on_done: Optional[SourceCallback],
        sink: StateArraysSink,
    ) -> None:
        """Blocked multi-source engine: dense ``(n, B)`` state, one product per step."""
        params = self.params
        n = self.n_nodes
        eta = params.propagation_threshold
        delta = params.residue_threshold
        alpha = params.alpha
        scale = 1.0 - alpha
        max_iterations = params.max_index_iterations
        hub_nodes = self._hub_nodes
        block = max(1, min(int(params.block_size), len(sources)))
        matrix = self.transition
        jit = self._jit
        # In-place accumulating product: needs reusable planes and the SciPy
        # routine; otherwise fall back to the allocating legacy product.
        fused = self.reuse_buffers and _CSC_MATVECS is not None

        # Without buffer reuse the planes come from a throwaway pool.
        ws = self.workspace if self.reuse_buffers else KernelWorkspace()
        residual = ws.zeros("residual", (n, block))
        retained = ws.zeros("retained", (n, block))
        hub_ink = ws.zeros("hub_ink", (hub_nodes.size, block))
        iterations = ws.zeros("iterations", block, np.int64)
        column_source = ws.take("column_source", block, np.int64)
        # Work planes fully (re)written before every read; bookkeeping
        # vectors for parked columns are masked off by ``live``.
        amounts = ws.take("amounts", (n, block))
        column_mass = ws.take("column_mass", block)
        column_active = ws.take("column_active", block, bool)
        active = ws.take("active", (n, block), bool) if jit is None else None
        shares = ws.take("shares", (n, block)) if jit is None else None

        next_source = 0
        # Hoisted once: the profiling-off cost inside the loop is `prof is
        # not None` checks, no attribute loads or clock reads.
        prof = self.profiler if self.profiler.enabled else None

        def refill(columns: np.ndarray) -> None:
            """Load the next pending sources into a batch of freed columns."""
            nonlocal next_source
            take = min(len(sources) - next_source, columns.size)
            fill, park = columns[:take], columns[take:]
            if take:
                fresh = np.asarray(
                    sources[next_source : next_source + take], dtype=np.int64
                )
                next_source += take
                residual[:, fill] = 0.0
                retained[:, fill] = 0.0
                hub_ink[:, fill] = 0.0
                residual[fresh, fill] = 1.0
                iterations[fill] = 0
                column_source[fill] = fresh
            column_source[park] = -1

        refill(np.arange(block))

        while True:
            live = column_source >= 0
            if not live.any():
                break
            with stages.time("bca"):
                if jit is not None:
                    # Fused per-column mass + has-active statistics.
                    jit.block_stats(residual, live, eta, column_mass, column_active)
                    has_active = column_active
                    mass = column_mass
                else:
                    np.greater_equal(residual, eta, out=active)
                    if not live.all():
                        active[:, ~live] = False
                    has_active = active.any(axis=0)
                    mass = residual.sum(axis=0)
                stepping = live & has_active & (mass > delta) & (iterations < max_iterations)
            finished = live & ~stepping
            if finished.any():
                # Spill every converged source in one batch and refill the
                # freed columns; the next pass re-evaluates the fresh ones.
                with stages.time("materialize"):
                    spill_start = time.perf_counter() if prof is not None else 0.0
                    columns = np.flatnonzero(finished)
                    self._spill_columns(
                        columns, column_source, residual, retained, hub_ink,
                        iterations, hub_nodes, on_done, sink,
                    )
                    refill(columns)
                    if prof is not None:
                        prof.on_spill(
                            n_sources=int(columns.size),
                            seconds=time.perf_counter() - spill_start,
                        )
                continue
            with stages.time("bca"):
                product_start = time.perf_counter() if prof is not None else 0.0
                if jit is not None:
                    # Snapshot, retain, scatter and hub-split fused into one
                    # compiled parallel pass over the stepping columns.
                    jit.bca_block_iteration(
                        residual, retained, hub_ink, amounts,
                        self._hub_position, matrix.indptr, matrix.indices,
                        matrix.data, stepping, eta, alpha, scale,
                    )
                    iterations[stepping] += 1
                    if prof is not None:
                        prof.on_block_iteration(
                            backend=self.backend,
                            n_live=int(np.count_nonzero(stepping)),
                            seconds=time.perf_counter() - product_start,
                        )
                    continue
                # Snapshot the propagating amounts (Eq. 9 operates on r_{t-1})
                # and advance every live source with one sparse-dense product.
                np.multiply(residual, active, out=amounts)
                residual -= amounts
                np.multiply(amounts, scale, out=shares)
                if live.all():
                    if fused:
                        # Accumulate arrivals straight into the residual plane
                        # (hub rows hold zero residue by invariant, so their
                        # accumulated sums equal the legacy arrivals and can
                        # be moved to hub_ink afterwards).
                        _CSC_MATVECS(
                            n, n, block, matrix.indptr, matrix.indices,
                            matrix.data, shares.ravel(), residual.ravel(),
                        )
                        if hub_nodes.size:
                            hub_ink += residual[hub_nodes, :]
                            residual[hub_nodes, :] = 0.0
                    else:
                        arrivals = matrix @ shares
                        if hub_nodes.size:
                            hub_ink += arrivals[hub_nodes, :]
                            arrivals[hub_nodes, :] = 0.0
                        residual += arrivals
                else:
                    # Drain phase: the worklist is exhausted and some columns
                    # are parked all-zero — restrict the product to the live
                    # columns so tail stragglers stop paying for the whole
                    # block.  Per-column results are unchanged bit for bit:
                    # the gathered columns start from the same values and
                    # accumulate contributions in the same ascending
                    # matrix-column order as the full-width pass.
                    columns = np.flatnonzero(stepping)
                    if fused:
                        # Trailing fancy indexing yields F-ordered copies;
                        # the accumulating product needs C layout (it reads
                        # and writes raveled row-major storage).
                        live_shares = np.ascontiguousarray(shares[:, columns])
                        live_residual = np.ascontiguousarray(residual[:, columns])
                        _CSC_MATVECS(
                            n, n, columns.size, matrix.indptr, matrix.indices,
                            matrix.data, live_shares.ravel(), live_residual.ravel(),
                        )
                        if hub_nodes.size:
                            hub_ink[:, columns] += live_residual[hub_nodes, :]
                            live_residual[hub_nodes, :] = 0.0
                        residual[:, columns] = live_residual
                    else:
                        arrivals = matrix @ shares[:, columns]
                        if hub_nodes.size:
                            hub_ink[:, columns] += arrivals[hub_nodes, :]
                            arrivals[hub_nodes, :] = 0.0
                        residual[:, columns] += arrivals
                np.multiply(amounts, alpha, out=amounts)
                retained += amounts
                iterations[stepping] += 1
                if prof is not None:
                    prof.on_block_iteration(
                        backend=self.backend,
                        n_live=int(np.count_nonzero(stepping)),
                        seconds=time.perf_counter() - product_start,
                    )

    def _spill_columns(
        self,
        columns: np.ndarray,
        column_source: np.ndarray,
        residual: np.ndarray,
        retained: np.ndarray,
        hub_ink: np.ndarray,
        iterations: np.ndarray,
        hub_nodes: np.ndarray,
        on_done: Optional[SourceCallback],
        sink: StateArraysSink,
    ) -> None:
        """Spill a batch of converged dense columns into the sink."""
        bounds: Optional[np.ndarray] = None
        if self.hub_matrix is not None:
            # Reproduce _HubExpansion.expand's accumulation order exactly
            # (retained first, then one hub column at a time in ascending
            # position order): states whose hub ink is stored in ascending
            # order — everything this backend produces — re-materialize
            # through expand() to the bit-identical lower bounds, which the
            # dynamic maintainer's hub re-expansion path relies on.
            vectors = retained[:, columns]  # fancy index: a fresh array
            matrix = self.hub_matrix
            for position in range(matrix.shape[1]):
                ink = hub_ink[position, columns]
                if not ink.any():
                    continue
                start, stop = matrix.indptr[position], matrix.indptr[position + 1]
                vectors[matrix.indices[start:stop], :] += (
                    ink[None, :] * matrix.data[start:stop, None]
                )
            bounds = _batched_top_k(vectors, self.params.capacity)
        _emit_states(
            column_source[columns],
            iterations[columns],
            bounds,
            (
                _flat_columns(residual, columns),
                _flat_columns(retained, columns),
                _flat_columns(hub_ink, columns, hub_nodes),
            ),
            on_done,
            sink,
        )

    def _run_sparse(
        self,
        sources: List[int],
        stages: StageTimer,
        on_done: Optional[SourceCallback],
        sink: StateArraysSink,
    ) -> None:
        """Blocked engine on sparse CSC planes: memory scales with the frontier.

        Each chunk of ``B`` sources runs to full convergence before the next
        chunk starts (no mid-stream refill — refilling would force repeated
        sparse-structure rebuilds).  All per-iteration arithmetic is
        element-wise on the CSC ``data`` vector or per-column sparse algebra,
        so every source's trajectory is bitwise independent of its chunk
        mates, exactly like the dense backends.
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
        block = max(1, min(int(params.block_size), len(sources)))
        prof = self.profiler if self.profiler.enabled else None
        peak = 0

        for chunk_start in range(0, len(sources), block):
            chunk = np.asarray(
                sources[chunk_start : chunk_start + block], dtype=np.int64
            )
            width = int(chunk.size)
            with stages.time("bca"):
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
                    # segments: empty columns contribute no data between
                    # consecutive nonempty starts, so segment ends line up
                    # with column ends — each sum reads only its own column.
                    mass = np.zeros(width, dtype=np.float64)
                    nonempty = np.flatnonzero(counts)
                    if nonempty.size:
                        mass[nonempty] = np.add.reduceat(
                            data, indptr[:-1][nonempty]
                        )
                    active = data >= eta
                    col_of = np.repeat(
                        np.arange(width, dtype=np.int64), counts
                    )
                    has_active = (
                        np.bincount(col_of[active], minlength=width) > 0
                    )
                    stepping = (
                        alive
                        & has_active
                        & (mass > delta)
                        & (iterations < max_iterations)
                    )
                    if not stepping.any():
                        break
                    alive = stepping
                    iteration_start = (
                        time.perf_counter() if prof is not None else 0.0
                    )
                    take = active & stepping[col_of]
                    amounts = np.where(take, data, 0.0)
                    # Pre-scale the pushed shares so the per-edge product is
                    # weight * ((1-alpha) * amount) — the same association
                    # as the scalar reference's ``share * weight``.
                    shares = sp.csc_matrix(
                        (
                            amounts * scale,
                            residual.indices.copy(),
                            indptr.copy(),
                        ),
                        shape=(n, width),
                    )
                    shares.eliminate_zeros()
                    kept = sp.csc_matrix(
                        (
                            amounts * alpha,
                            residual.indices.copy(),
                            indptr.copy(),
                        ),
                        shape=(n, width),
                    )
                    kept.eliminate_zeros()
                    retained = (retained + kept).tocsc()
                    residual.data = data - amounts
                    residual.eliminate_zeros()
                    # SciPy's sparse-sparse product accumulates each output
                    # column independently — per-column bitwise determinism
                    # survives the chunk composition.
                    arrivals = (matrix @ shares).tocsc()
                    if hub_nodes.size and arrivals.nnz:
                        rows = arrivals.tocsr()
                        moved = False
                        for position, hub in enumerate(hub_nodes.tolist()):
                            lo, hi = rows.indptr[hub], rows.indptr[hub + 1]
                            if lo == hi:
                                continue
                            hub_ink[position, rows.indices[lo:hi]] += rows.data[
                                lo:hi
                            ]
                            rows.data[lo:hi] = 0.0
                            moved = True
                        if moved:
                            rows.eliminate_zeros()
                            arrivals = rows.tocsc()
                    residual = (residual + arrivals).tocsc()
                    iterations[stepping] += 1
                    live_bytes = (
                        residual.data.nbytes
                        + residual.indices.nbytes
                        + residual.indptr.nbytes
                        + retained.data.nbytes
                        + retained.indices.nbytes
                        + retained.indptr.nbytes
                        + hub_ink.nbytes
                    )
                    peak = max(peak, int(live_bytes))
                    if prof is not None:
                        prof.on_block_iteration(
                            backend=self.backend,
                            n_live=int(np.count_nonzero(stepping)),
                            seconds=time.perf_counter() - iteration_start,
                        )
            with stages.time("materialize"):
                spill_start = time.perf_counter() if prof is not None else 0.0
                self._spill_sparse(
                    chunk, residual, retained, hub_ink, iterations,
                    hub_nodes, on_done, sink,
                )
                if prof is not None:
                    prof.on_spill(
                        n_sources=width,
                        seconds=time.perf_counter() - spill_start,
                    )

        self._sparse_peak_bytes = peak

    def _spill_sparse(
        self,
        chunk: np.ndarray,
        residual: sp.csc_matrix,
        retained: sp.csc_matrix,
        hub_ink: np.ndarray,
        iterations: np.ndarray,
        hub_nodes: np.ndarray,
        on_done: Optional[SourceCallback],
        sink: StateArraysSink,
    ) -> None:
        """Spill a converged sparse chunk into the sink.

        The CSC columns, once sorted, *are* the flat ``(counts, keys,
        values)`` segments — keys ascending per column, the same order the
        dense spill's ``np.nonzero`` gather produces.
        """
        width = int(chunk.size)
        capacity = self.params.capacity
        residual.eliminate_zeros()
        residual.sort_indices()
        retained.eliminate_zeros()
        retained.sort_indices()
        bounds: Optional[np.ndarray] = None
        if self.hub_matrix is not None:
            if not hub_ink.size or not hub_ink.any():
                # No hub corrections: the expanded vector is exactly the
                # retained column scattered over zeros, so its top-K is the
                # column's values sorted descending, zero-padded (every
                # retained value is positive and K <= n by construction).
                bounds = np.zeros((capacity, width), dtype=np.float64)
                for column in range(width):
                    lo, hi = retained.indptr[column], retained.indptr[column + 1]
                    ordered = np.sort(retained.data[lo:hi])[::-1]
                    count = min(ordered.size, capacity)
                    bounds[:count, column] = ordered[:count]
            else:
                # Reproduce _HubExpansion.expand per column on a dense
                # scratch vector: retained entries first, then hub columns
                # in ascending position order (the hub-ink storage order).
                bounds = np.empty((capacity, width), dtype=np.float64)
                matrix = self.hub_matrix
                scratch = np.zeros(self.n_nodes, dtype=np.float64)
                for column in range(width):
                    lo, hi = retained.indptr[column], retained.indptr[column + 1]
                    touched = retained.indices[lo:hi]
                    scratch[touched] = retained.data[lo:hi]
                    hub_touched = []
                    for position in np.flatnonzero(hub_ink[:, column]).tolist():
                        start, stop = (
                            matrix.indptr[position],
                            matrix.indptr[position + 1],
                        )
                        targets = matrix.indices[start:stop]
                        scratch[targets] += (
                            hub_ink[position, column] * matrix.data[start:stop]
                        )
                        hub_touched.append(targets)
                    bounds[:, column] = top_k_descending(scratch, capacity)
                    scratch[touched] = 0.0
                    for targets in hub_touched:
                        scratch[targets] = 0.0
        _emit_states(
            chunk,
            iterations,
            bounds,
            (
                *(
                    (
                        np.diff(plane.indptr).astype(np.int64),
                        plane.indices.astype(np.int64),
                        plane.data,
                    )
                    for plane in (residual, retained)
                ),
                _flat_columns(hub_ink, np.arange(width, dtype=np.int64), hub_nodes),
            ),
            on_done,
            sink,
        )

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
        scatters the rest along its out-edges (a gather of the active CSC
        columns plus one scatter-add); ink that landed on hubs moves to ``s``,
        and ``v`` and its top-K are refreshed incrementally
        (``v += alpha * amounts + P_H @ delta_s``).  Cost follows the residue
        support and the entries pushed, never ``n`` or ``nnz(A)``.  Returns
        ``False`` (changing nothing) when no residue remains.
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


def _column_entries(matrix: sp.csc_matrix, columns: np.ndarray):
    """Storage positions of every entry of the listed CSC columns, and counts."""
    indptr = matrix.indptr
    starts = indptr[columns]
    counts = indptr[columns + 1] - starts
    ends = counts.cumsum()
    total = int(ends[-1]) if ends.size else 0
    entries = (starts - (ends - counts)).repeat(counts) + np.arange(total)
    return entries, counts


def _scatter_columns(
    matrix: sp.csc_matrix, columns: np.ndarray, scales: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """``out += matrix[:, columns] @ scales`` over the stored entries only.

    Gathers the listed CSC columns and scatter-adds ``scale * weight`` into
    the dense ``out`` in (column, entry) order — the association and order of
    the scalar reference's ``share * weight`` loop.  Returns the row index of
    every pushed entry (with repeats), so callers can track what changed.
    """
    entries, counts = _column_entries(matrix, columns)
    rows = matrix.indices[entries]
    np.add.at(out, rows, scales.repeat(counts) * matrix.data[entries])
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
        fresh = targets[~self._seen[targets]]
        if fresh.size:
            fresh = self._distinct(fresh)
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
        entries, _ = _column_entries(self._hub_matrix, np.flatnonzero(self.hub_ink))
        self.vector[self._hub_matrix.indices[entries]] = 0.0
        self._busy[0] = False
