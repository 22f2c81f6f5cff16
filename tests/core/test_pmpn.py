"""Tests for Algorithm 2 (PMPN) — certified intervals of the proximities to a node."""

import pickle

from hypothesis import event, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import IndexParams, ReverseTopKEngine, build_index
from repro.core import pmpn as pmpn_module
from repro.core.baseline import brute_force_reverse_topk
from repro.core.hubs import HubSet
from repro.core.index import NodeState
from repro.core.pmpn import PMPNPlan, PMPNState, pmpn_iteration_bound, proximity_to_node
from repro.dynamic import DynamicReverseTopKService, GraphUpdate
from repro.exceptions import ConvergenceError, InvalidParameterError
from repro.graph import (
    DiGraph,
    copying_web_graph,
    ring_graph,
    transition_matrix,
    weighted_transition_matrix,
)
from repro.graph.datasets import write_synthetic_edge_list
from repro.graph.io import read_edge_list
from repro.rwr import ProximityLU, proximity_column
from repro.serving import ReverseTopKService, ServiceConfig

from tests.reference import index_from_states


class TestPMPNCorrectness:
    def test_matches_row_of_exact_matrix(self, small_transition, small_exact_matrix):
        for query in (0, 5, 23):
            result = proximity_to_node(small_transition, query)
            np.testing.assert_allclose(result.proximities, small_exact_matrix[query, :], atol=1e-7)
            np.testing.assert_allclose(result.lower, small_exact_matrix[query, :], atol=1e-7)

    def test_matches_column_entries(self, small_transition):
        # p_{q,*}(u) must equal p_u(q) computed column-wise (Theorem 2).
        query = 7
        row = proximity_to_node(small_transition, query).proximities
        for node in (0, 3, 11, 30):
            column = proximity_column(small_transition, node)
            assert row[node] == pytest.approx(column[query], abs=1e-7)

    def test_cost_independent_of_result_size(self, small_transition):
        # Same iteration count magnitude as a single forward power-method run.
        result = proximity_to_node(small_transition, 0, tolerance=1e-10)
        assert result.iterations <= 2 * pmpn_iteration_bound(0.15, 1e-10) + 10

    def test_ring_graph_row(self):
        matrix = transition_matrix(ring_graph(5))
        lu = ProximityLU(matrix)
        row = proximity_to_node(matrix, 2).proximities
        np.testing.assert_allclose(row, lu.row(2), atol=1e-8)

    def test_query_entry_is_largest_on_ring(self):
        # On a symmetric cycle, the node closest to q (q itself) contributes most.
        matrix = transition_matrix(ring_graph(7))
        row = proximity_to_node(matrix, 3).proximities
        assert int(np.argmax(row)) == 3


class TestPMPNBehaviour:
    def test_result_fields(self, small_transition):
        result = proximity_to_node(small_transition, 1)
        assert isinstance(result, PMPNState)
        assert result.converged
        assert result.width <= 1e-10
        assert result.iterations > 0

    def test_rejects_bad_query(self, small_transition):
        with pytest.raises(InvalidParameterError):
            proximity_to_node(small_transition, -1)

    def test_raises_on_failure_by_default(self, small_transition):
        with pytest.raises(ConvergenceError):
            proximity_to_node(small_transition, 0, max_iterations=1, tolerance=1e-14)

    def test_non_raising_mode(self, small_transition):
        result = proximity_to_node(
            small_transition, 0, max_iterations=1, tolerance=1e-14, raise_on_failure=False
        )
        assert not result.converged

    def test_zero_rounds_is_the_certified_start(self, small_transition):
        # The engine's entry: no round yet, every interval is [0, 1].
        state = proximity_to_node(
            small_transition, 4, max_iterations=0, raise_on_failure=False
        )
        assert (state.iterations, state.width) == (0, 1.0)
        assert not state.lower.any()
        state.advance()
        assert state.iterations == 1 and state.width < 1.0
        assert state.lower[4] == pytest.approx(0.15)

    def test_iteration_bound_formula(self):
        assert pmpn_iteration_bound(0.15, 1e-10) == pytest.approx(131, abs=2)

    def test_convergence_rate_bounded_by_one_minus_alpha(self, small_transition):
        # Theorem 2(b) gives 1 - alpha as the *worst-case* rate: the extra
        # rounds for a 1e4-times tighter tolerance never exceed the bound
        # (real graphs often converge faster).
        loose = proximity_to_node(small_transition, 0, tolerance=1e-4).iterations
        tight = proximity_to_node(small_transition, 0, tolerance=1e-8).iterations
        worst_case_gap = np.log(1e-8 / 1e-4) / np.log(1 - 0.15)
        assert tight >= loose
        assert (tight - loose) <= worst_case_gap + 10


# --------------------------------------------------------------------- #
# the certified interval, against the LU oracle
# --------------------------------------------------------------------- #
#: The oracle's own rounding: a few ulps of a proximity (all are <= 1).
SLACK = 8 * np.finfo(np.float64).eps


@st.composite
def shaped_digraphs(draw):
    """Random digraphs of one shape, weighted or not, dangling nodes allowed.

    ``dag``: edges only to higher ids (sources without in-edges, sinks that
    dangle); ``blocks``: several strongly connected rings with forward edges
    between them; ``islands``: the same rings with no edge between them
    (disconnected components); ``giant``: one ring over most nodes plus
    random edges; ``random``: unrestricted, cycles everywhere.
    """
    shape = draw(st.sampled_from(["dag", "blocks", "islands", "giant", "random"]))
    n = draw(st.integers(min_value=2, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    mask = rng.random((n, n)) < rng.uniform(0.02, 0.3)
    np.fill_diagonal(mask, False)
    if shape == "dag":
        mask = np.triu(mask, 1)
    elif shape in ("blocks", "islands"):
        labels = np.sort(rng.integers(0, max(n // 4, 1), n))
        mask &= (labels[:, None] < labels[None, :]) & (shape == "blocks")
        for label in np.unique(labels):
            members = np.flatnonzero(labels == label)
            if members.size > 1:
                mask[members, np.roll(members, -1)] = True
    elif shape == "giant":
        ring = rng.permutation(n)[: max(2, (3 * n) // 4)]
        mask[ring, np.roll(ring, -1)] = True
    weighted = draw(st.booleans())
    weights = rng.integers(1, 5, size=(n, n)) if weighted else np.ones((n, n))
    graph = DiGraph(sp.csr_matrix(np.where(mask, weights, 0).astype(float)))
    return weighted_transition_matrix(graph) if weighted else transition_matrix(graph)


def assert_interval_holds(transition, plan, query, exact, *, shrink=1.0):
    """``lower <= exact <= lower + shrink * width`` at every round, to convergence."""
    state = proximity_to_node(
        transition, query, plan=plan, max_iterations=0, raise_on_failure=False
    )
    rows = plan.row_set(query)
    assert (state.rows, state.edges) == (rows.n_rows, rows.n_edges)
    while True:
        lower, upper = state.interval(np.arange(exact.size))
        np.testing.assert_array_equal(lower, state.lower)
        assert state.interval_at(query) == (lower[query], upper[query])
        assert np.all(lower <= exact + SLACK), state.iterations
        assert np.all(exact <= lower + shrink * (upper - lower) + SLACK), state.iterations
        assert np.all(upper - lower <= state.width + SLACK)
        if state.converged and state.settled:
            return state
        width = state.width
        state.advance()
        # Geometric, up to the width's own rounding allowance.
        assert state.width <= (1 - state.alpha) * width + 1e-12


def dense_pmpn(transition, query, *, alpha=0.15, tolerance=1e-10):
    """Algorithm 2 as the paper runs it: every row, to an L1 change below tolerance."""
    n = transition.shape[0]
    transposed = transition.T.tocsr()
    restart = np.zeros(n)
    restart[query] = alpha
    current = np.zeros(n)
    current[query] = 1.0
    for _ in range(2 * pmpn_iteration_bound(alpha, tolerance) + 10):
        nxt = (1.0 - alpha) * (transposed @ current) + restart
        change = float(np.abs(nxt - current).sum())
        current = nxt
        if change < tolerance:
            return current
    raise AssertionError("the dense loop did not converge")


@given(shaped_digraphs())
@settings(max_examples=80, deadline=None)
def test_interval_holds_at_every_round(transition):
    """Every query of the graph, every round: the interval holds the LU row.

    The rounds are PMPN's own iterations, so its result is the dense loop's
    bit for bit — the value every test the interval leaves open is made on.
    """
    plan = PMPNPlan(transition)
    lu = ProximityLU(transition)
    for query in range(transition.shape[0]):
        state = assert_interval_holds(transition, plan, query, lu.row(query))
        assert state.proximities.tobytes() == dense_pmpn(transition, query).tobytes()
        event(f"row set: {row_set_side(plan, query)}")


def row_set_side(plan, query):
    return "suffix" if isinstance(plan.row_set(query).index, slice) else "ancestors"


def dangling_query():
    """A dangling query ``q = 0`` fed by a small chain: the bound is tight at ``q``.

    ``q``'s self-loop keeps the largest residual at ``q`` itself, and
    ``p_q(q) = 1``, so ``p_q(q) - est_q = max r`` exactly at every round.
    """
    adjacency = sp.csr_matrix(
        ([1.0, 1.0, 1.0, 1.0], ([1, 2, 2, 3], [0, 1, 0, 2])), shape=(4, 4)
    )
    return transition_matrix(DiGraph(adjacency))


class TestIntervalNegativeControls:
    def test_shrinking_the_width_fails_the_property(self):
        transition = dangling_query()
        plan = PMPNPlan(transition)
        exact = ProximityLU(transition).row(0)
        assert exact[0] == pytest.approx(1.0)
        assert_interval_holds(transition, plan, 0, exact)
        with pytest.raises(AssertionError):
            assert_interval_holds(transition, plan, 0, exact, shrink=0.99)

    def test_dropping_an_ancestor_row_fails_the_property(self, monkeypatch):
        """The property sees a row set one ancestor short."""
        ancestors = PMPNPlan.ancestors

        def one_short(plan, query):
            found = ancestors(plan, query)
            return found[:-1] if found.size > 1 else found

        monkeypatch.setattr(PMPNPlan, "ancestors", one_short)
        with pytest.raises(AssertionError):
            test_interval_holds_at_every_round()


def test_exact_tie_is_decided_like_the_brute_force():
    """``p_u(q) == P̂[k-1, u]`` in floats: no interval decides it, PMPN's result does.

    ``u = 2`` links to ``q = 0`` and ``w = 1``, both dangling; at
    ``alpha = 1/2`` every round is dyadic and exact, ``p_u = (1/4, 1/4, 1/2)``
    and ``u``'s hand-made exact top-2 ends on ``1/4 = p_u(q)``.
    """
    adjacency = sp.csr_matrix(([1.0, 1.0], ([2, 2], [0, 1])), shape=(3, 3))
    transition = transition_matrix(DiGraph(adjacency))
    params = IndexParams(alpha=0.5, capacity=3, hub_budget=0)
    exact = ProximityLU(transition, alpha=0.5).matrix()
    states = [
        NodeState(retained={0: 1.0}, lower_bounds=np.array([1.0, 0.0, 0.0])),
        NodeState(retained={1: 1.0}, lower_bounds=np.array([1.0, 0.0, 0.0])),
        NodeState(
            retained={0: 0.25, 1: 0.25, 2: 0.5},
            lower_bounds=np.array([0.5, 0.25, 0.25]),
        ),
    ]
    index = index_from_states(
        params, HubSet(()), sp.csc_matrix((3, 0)), np.zeros(0), states
    )
    engine = ReverseTopKEngine(transition, index)
    result = engine.query(0, 2, update_index=False)
    expected = brute_force_reverse_topk(transition, 0, 2, alpha=0.5)
    np.testing.assert_array_equal(result.nodes, expected)
    assert 2 in result.nodes
    assert exact[0, 2] == 0.25 == index.state_arrays(2).lower_bounds[1]
    assert result.statistics.n_floor_decisions >= 1
    lower = result.proximities_to_query[2]
    assert lower <= 0.25 <= lower + result.proximity_width


class TestRowSets:
    def test_both_row_sets_are_reached(self):
        # A chain 0 -> 1 -> ... -> 59 with a long tail: the head's suffix is
        # tiny (ancestors), while node 59 sits below every other node.
        chain = sp.diags(np.ones(59), 1, shape=(60, 60), format="csr")
        transition = transition_matrix(DiGraph(chain))
        plan = PMPNPlan(transition)
        assert row_set_side(plan, 0) == "ancestors"
        assert row_set_side(plan, 59) == "suffix"
        lu = ProximityLU(transition)
        for query in (0, 30, 59):
            assert_interval_holds(transition, plan, query, lu.row(query))
        # One ring: every node shares one component, first = 0, every row.
        ring = transition_matrix(ring_graph(12))
        ring_plan = PMPNPlan(ring)
        assert not ring_plan.first.any()
        assert proximity_to_node(ring, 3, plan=ring_plan).rows == 12

    def test_non_topological_labels_trip_the_check(self, monkeypatch):
        """Negative control: a layout whose edges point forward is refused."""
        dag = sp.csr_matrix(np.triu(np.ones((8, 8)), 1))
        transition = transition_matrix(DiGraph(dag))
        assert PMPNPlan(transition).first.any()  # the true layout passes
        # Each node its own component, labelled by id: every edge i -> j of
        # the DAG points to a *later* component.
        monkeypatch.setattr(
            pmpn_module,
            "connected_components",
            lambda graph, **_: (graph.shape[0], np.arange(graph.shape[0])),
        )
        plan = PMPNPlan(transition)
        assert not plan.first.any()
        lu = ProximityLU(transition)
        for query in range(8):
            state = assert_interval_holds(transition, plan, query, lu.row(query))
            assert state.rows == 8

    def test_product_without_the_compiled_kernel(self, small_transition, monkeypatch):
        plan = PMPNPlan(small_transition)
        compiled = [proximity_to_node(small_transition, q, plan=plan) for q in (0, 5, 23)]
        monkeypatch.setattr(pmpn_module, "_csr_matvec", None)
        for query, expected in zip((0, 5, 23), compiled):
            state = proximity_to_node(small_transition, query, plan=plan)
            assert state.iterations == expected.iterations
            np.testing.assert_allclose(state.lower, expected.lower, rtol=1e-12, atol=0)

    def test_plan_of_another_graph_is_rejected(self, small_transition):
        with pytest.raises(ValueError):
            proximity_to_node(
                small_transition, 0, plan=PMPNPlan(transition_matrix(ring_graph(5)))
            )


class TestRowSetsOnBenchmarkGraphs:
    """Rows and edges per round on the perf workloads' graphs (seed 0)."""

    def test_copying_web_queries_take_the_ancestor_path(self):
        # tail_k10's graph: half the queries iterate a handful of rows.
        transition = transition_matrix(copying_web_graph(4000, out_degree=10, seed=0))
        plan = PMPNPlan(transition)
        results = [proximity_to_node(transition, q, plan=plan) for q in range(0, 4000, 80)]
        small = [r for r in results if r.edges <= 0.1 * transition.nnz]
        assert len(small) >= 0.4 * len(results)
        assert np.median([r.edges for r in small]) < 0.01 * transition.nnz
        assert np.median([r.rows for r in small]) < 40

    def test_synthetic_crawl_queries_take_a_near_full_suffix(self, tmp_path):
        # memmap_k1's graph: one component holds almost every node.
        write_synthetic_edge_list(tmp_path / "edges.txt", n_nodes=4000, seed=0)
        transition = transition_matrix(read_edge_list(tmp_path / "edges.txt"))
        plan = PMPNPlan(transition)
        results = [proximity_to_node(transition, q, plan=plan) for q in range(0, 4000, 200)]
        near_full = [r for r in results if r.edges >= 0.9 * transition.nnz]
        assert len(near_full) >= 0.9 * len(results)


# --------------------------------------------------------------------- #
# the plan across rebinds, updates and process workers
# --------------------------------------------------------------------- #
PARAMS = IndexParams(capacity=8, hub_budget=2)


def dag_with_cycle_edit():
    """A DAG, the query 20, and the edit ``20 -> a`` closing a cycle through it."""
    rng = np.random.default_rng(7)
    mask = np.triu(rng.random((30, 30)) < 0.15, 1)
    mask[np.arange(29), np.arange(1, 30)] = True  # keep a path 0 -> ... -> 29
    graph = DiGraph(sp.csr_matrix(mask.astype(float)))
    return graph, 20, 3  # node 3 reaches 20 along the chain


def assert_same_answers(results, reference, queries, k):
    for query, result in zip(queries, results):
        direct = reference.query(query, k, update_index=False)
        np.testing.assert_array_equal(result.nodes, direct.nodes)
        assert result.proximities_to_query.tobytes() == direct.proximities_to_query.tobytes()
        assert result.statistics.pmpn_iterations == direct.statistics.pmpn_iterations


class TestPlanAcrossRebinds:
    QUERIES = (20, 3, 0, 12, 29)

    def test_rebind_after_a_cycle_through_q(self):
        graph, query, ancestor = dag_with_cycle_edit()
        engine = ReverseTopKEngine.build(graph, PARAMS)
        plan = engine._pmpn_plan
        assert plan.first[query] != plan.first[ancestor]
        [engine.query(q, 4, update_index=False) for q in self.QUERIES]
        edited = graph.with_edges(added=[(query, ancestor)])
        matrix = transition_matrix(edited)
        engine.rebind(matrix, build_index(edited, PARAMS, transition=matrix))
        plan = engine._pmpn_plan
        assert plan.first[query] == plan.first[ancestor]  # one component now
        results = [engine.query(q, 4, update_index=False) for q in self.QUERIES]
        assert_same_answers(results, ReverseTopKEngine.build(edited, PARAMS), self.QUERIES, 4)

    def test_apply_updates_after_a_cycle_through_q(self):
        graph, query, ancestor = dag_with_cycle_edit()
        matrix = transition_matrix(graph)
        engine = ReverseTopKEngine(matrix, build_index(graph, PARAMS, transition=matrix))
        config = ServiceConfig(cache_capacity=16, n_workers=0)
        requests = [(q, 4) for q in self.QUERIES]
        with DynamicReverseTopKService(engine, config, graph=graph) as service:
            service.serve(requests)
            service.apply_updates([GraphUpdate.add(query, ancestor)])
            plan = service.engine._pmpn_plan
            assert plan.first[query] == plan.first[ancestor]
            served = service.serve(requests)
            reference = ReverseTopKEngine.build(service.graph.base, PARAMS)
        assert_same_answers(served, reference, self.QUERIES, 4)

    def test_pickled_engine_rebuilds_the_plan(self, medium_web_graph, monkeypatch):
        engine = ReverseTopKEngine.build(medium_web_graph)
        queries = [int(q) for q in np.linspace(0, engine.n_nodes - 1, 50)]

        def never_pickled(plan, protocol):
            raise AssertionError("a PMPN plan was pickled")

        # The rollover's pickle boundary: the clone carries no plan and
        # builds its own, answering bit for bit like the live engine.
        monkeypatch.setattr(PMPNPlan, "__reduce_ex__", never_pickled)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone._pmpn_plan is not engine._pmpn_plan
        answers = []
        for served_engine in (engine, clone):
            service = ReverseTopKService(
                served_engine, ServiceConfig(n_workers=2, cache_capacity=0)
            )
            try:
                answers.append(service.serve([(q, 5) for q in queries]))
            finally:
                service.close()
        for live, cloned in zip(*answers):
            np.testing.assert_array_equal(cloned.nodes, live.nodes)
            assert cloned.proximities_to_query.tobytes() == live.proximities_to_query.tobytes()
