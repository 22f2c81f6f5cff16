"""Property tests for array-native candidate refinement (ISSUES 12, 14).

The refinement working set is checked against references that share no code
with it:

1. ``t`` working-set steps vs ``t`` steps of the scalar dict loop
   (:func:`bca_iteration`) plus the per-hub dense expansion
   (:meth:`_HubExpansion.expand`): the residual ``r``, retained ``w``, hub
   ink ``s`` and the K lower bounds agree to ``1e-12``, and ink is conserved
   wherever the reference conserves it — on random graphs with hubs,
   dangling nodes, self-loops and zero-residue states;
2. the paper's sandwich (ROADMAP item 4a): after **every** refinement step
   ``lower_k <= exact_k <= upper_k`` against the sparse direct solver of
   :mod:`repro.rwr.linear_solver`, which shares nothing with BCA;
3. the query-aware bound: after every step, for every query node ``q`` and
   depth ``k``, the k-th largest of ``{p_u(w) : w != q}`` from the direct
   solver stays below ``kth_other_upper_bound`` — with hubs that carry a
   rounding deficit, dangling nodes, self-loops, ``q`` inside and outside
   the top-k, ``k = K`` and ``eps = 0`` (unreachable ``q``, drained states).

Steps run under the query-time rule (every node holding residue pushes).
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st
import numpy as np
import scipy.sparse as sp

from repro.core import IndexParams, ReverseTopKEngine, kth_upper_bound, refine_node_state
from repro.core.bounds import kth_other_upper_bound
from repro.core.hubs import HubSet
from repro.core.lbi import _compute_hub_matrix
from repro.core.propagation import PropagationKernel, _HubExpansion
from repro.graph import DiGraph
from repro.rwr.linear_solver import ProximityLU
from repro.utils.sparsetools import top_k_descending

from tests.reference import (
    SeedState,
    bca_iteration,
    initial_node_state,
    kth_other_upper_bound as reference_kth_other_upper_bound,
    run_node_bca,
)

#: Threshold that makes the scalar reference push every node holding residue,
#: as ``PropagationKernel.step`` always does: the smallest positive float.
PUSH_ALL = 5e-324


@st.composite
def transitions(draw, max_nodes: int = 16):
    """Random column-(sub)stochastic CSC transitions.

    Self-loops are allowed; with ``dangling`` some columns are left empty
    (the ``1 - alpha`` share pushed from such a node is lost, in the
    reference and the working set alike).
    """
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    density = draw(st.floats(min_value=0.1, max_value=0.6))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    dangling = draw(st.booleans())
    rng = np.random.default_rng(seed)
    weights = np.where(
        rng.random((n, n)) < density, rng.integers(1, 5, size=(n, n)).astype(float), 0.0
    )
    if not dangling:
        empty = np.flatnonzero(weights.sum(axis=0) == 0.0)
        weights[empty, empty] = 1.0  # the default self-loop policy
    totals = weights.sum(axis=0)
    weights = np.divide(weights, totals, out=np.zeros_like(weights), where=totals > 0)
    return sp.csc_matrix(weights)


@st.composite
def refinement_cases(draw):
    matrix = draw(transitions())
    n = matrix.shape[0]
    n_hubs = draw(st.integers(min_value=0, max_value=n // 2))
    hubs = HubSet.from_iterable(
        draw(st.permutations(list(range(n))))[:n_hubs]
    )
    params = IndexParams(
        capacity=draw(st.integers(min_value=1, max_value=n)),
        hub_budget=n_hubs,
        propagation_threshold=draw(st.sampled_from([1e-1, 1e-2, 1e-4])),
        residue_threshold=draw(st.sampled_from([0.5, 0.1])),
        rounding_threshold=draw(st.sampled_from([0.0, 1e-6, 1e-2])),
    )
    hub_mask = hubs.mask(n)
    source = int(draw(st.sampled_from(np.flatnonzero(~hub_mask).tolist())))
    kind = draw(st.sampled_from(["fresh", "indexed", "drained"]))
    state = initial_node_state(source, False)
    if kind == "indexed":
        run_node_bca(state, matrix, hub_mask, params)
    elif kind == "drained":
        # A zero-residue state: everything already retained at the source.
        state = SeedState(retained={source: 1.0})
    steps = draw(st.integers(min_value=1, max_value=8))
    return matrix, hubs, params, source, state, steps


def _dense(entries, n):
    vector = np.zeros(n)
    for key, value in entries.items():
        vector[key] = value
    return vector


class TestWorkingSetAgainstScalarReference:
    @given(refinement_cases())
    @settings(max_examples=150, deadline=None)
    def test_steps_match_dict_loop_and_dense_expansion(self, case):
        matrix, hubs, params, _, reference, steps = case
        n = matrix.shape[0]
        hub_mask = hubs.mask(n)
        hub_matrix, _, _ = _compute_hub_matrix(matrix, hubs, params)
        expansion = _HubExpansion(n, hubs, hub_matrix)
        kernel = PropagationKernel(
            matrix, hub_mask, params, hubs=hubs, hub_matrix=hub_matrix
        )
        working = kernel.load(reference.flat())
        try:
            np.testing.assert_allclose(
                working.lower_bounds,
                top_k_descending(expansion.expand(reference.flat()), params.capacity),
                rtol=0, atol=1e-12,
            )
            for _ in range(steps):
                if not reference.residual:
                    assert working.is_exact
                    assert not kernel.step(working)
                    break
                assert kernel.step(working)
                assert bca_iteration(
                    reference, matrix, hub_mask, params,
                    propagation_threshold=PUSH_ALL,
                )
                state = SeedState.of(working.spill())
                for plane in ("residual", "retained", "hub_ink"):
                    np.testing.assert_allclose(
                        _dense(getattr(state, plane), n),
                        _dense(getattr(reference, plane), n),
                        rtol=0, atol=1e-12, err_msg=plane,
                    )
                np.testing.assert_allclose(
                    state.lower_bounds,
                    top_k_descending(expansion.expand(reference.flat()), params.capacity),
                    rtol=0, atol=1e-12,
                )
                assert state.iterations == reference.iterations
                ink = sum(map(sum, (state.residual.values(), state.retained.values(), state.hub_ink.values())))
                reference_ink = (
                    sum(reference.residual.values())
                    + sum(reference.retained.values())
                    + sum(reference.hub_ink.values())
                )
                assert abs(ink - reference_ink) <= 1e-12
                if abs(reference_ink - 1.0) <= 1e-12:
                    assert abs(ink - 1.0) <= 1e-12
        finally:
            working.release()


def _kth_largest(values: np.ndarray, k: int) -> float:
    """k-th largest entry, or 0 when there are fewer than ``k``."""
    return float(np.sort(values)[-k]) if values.size >= k else 0.0


class TestOthersBoundAgainstDirectSolver:
    @given(refinement_cases())
    @settings(max_examples=120, deadline=None)
    def test_kth_other_entry_stays_below_the_bound(self, case):
        matrix, hubs, params, source, state, steps = case
        # The synthetic "drained" state is not a BCA state of this graph, so
        # its v is no lower bound; eps = 0 still occurs (unreachable q).
        assume(state.residual)
        n = matrix.shape[0]
        hub_mask = hubs.mask(n)
        hub_matrix, hub_deficit, _ = _compute_hub_matrix(matrix, hubs, params)
        kernel = PropagationKernel(
            matrix, hub_mask, params, hubs=hubs, hub_matrix=hub_matrix
        )
        exact = ProximityLU(matrix, alpha=params.alpha).column(source)
        # Hub columns come from the power method at the index tolerance.
        slack = 10 * params.tolerance
        working = kernel.load(state.flat())
        try:
            for _ in range(steps + 1):
                mass = working.residual_mass(hub_deficit)
                assert np.all(exact - working.vector >= -slack)
                assert (exact - working.vector).sum() <= mass + slack
                for query in range(n):
                    others = np.delete(exact, query)
                    for k in range(1, params.capacity + 1):
                        kth_other = _kth_largest(others, k)
                        bound = kth_other_upper_bound(
                            working.lower_bounds, working.top, query, mass,
                            exact[query] - working.vector[query], k,
                        )
                        assert bound >= kth_other - slack, (query, k)
                        # ... float for float the numpy formula's ...
                        assert bound == reference_kth_other_upper_bound(
                            working.lower_bounds, working.top, query, mass,
                            exact[query] - working.vector[query], k,
                        )
                        # ... never looser than the paper's bound ...
                        assert bound <= slack + kth_upper_bound(
                            working.lower_bounds, mass, k
                        )
                        # ... and the k-th other entry decides membership.
                        assert (exact[query] >= _kth_largest(exact, k)) == (
                            kth_other <= exact[query]
                        )
                if not kernel.step(working):
                    assert working.is_exact
                    break
        finally:
            working.release()


@st.composite
def strongly_mixed_graphs(draw, max_nodes: int = 14):
    n = draw(st.integers(min_value=3, max_value=max_nodes))
    density = draw(st.floats(min_value=0.15, max_value=0.6))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    if not mask.any():
        mask[0, 1] = True
    return DiGraph(sp.csr_matrix(mask.astype(float)))


class TestSandwichAgainstDirectSolver:
    @given(strongly_mixed_graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_lower_exact_upper_after_every_step(self, graph, data):
        n = graph.n_nodes
        params = IndexParams(
            capacity=data.draw(st.integers(min_value=1, max_value=n)),
            hub_budget=data.draw(st.integers(min_value=0, max_value=n // 3)),
            propagation_threshold=data.draw(st.sampled_from([1e-1, 1e-2])),
            residue_threshold=data.draw(st.sampled_from([0.8, 0.3])),
            rounding_threshold=data.draw(st.sampled_from([0.0, 1e-6, 1e-3])),
        )
        engine = ReverseTopKEngine.build(graph, params)
        index = engine.index
        oracle = ProximityLU(engine.transition, alpha=params.alpha)
        capacity = index.capacity
        # Hub columns come from the power method at the index tolerance.
        slack = 10 * params.tolerance
        undecided = np.flatnonzero(~np.asarray(index.columns.is_exact))
        for node in undecided[:4].tolist():
            exact = top_k_descending(oracle.column(node), capacity)
            working = engine._kernel.load(index.state_arrays(node))
            try:
                for _ in range(12):
                    progressed = refine_node_state(
                        working, index, engine.transition, engine._hub_mask,
                        kernel=engine._kernel,
                    )
                    mass = working.residual_mass(index.hub_deficit)
                    assert np.all(working.lower_bounds <= exact + slack)
                    for k in range(1, capacity + 1):
                        upper = kth_upper_bound(working.lower_bounds, mass, k)
                        assert upper >= exact[k - 1] - slack
                    if not progressed:
                        assert working.is_exact
                        break
            finally:
                working.release()
