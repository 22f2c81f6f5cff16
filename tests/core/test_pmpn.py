"""Tests for Algorithm 2 (PMPN) — exact proximities to a node."""

import pickle

from hypothesis import event, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import IndexParams, ReverseTopKEngine, build_index
from repro.core import pmpn as pmpn_module
from repro.core.pmpn import PMPNPlan, PMPNResult, pmpn_iteration_bound, proximity_to_node
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


class TestPMPNCorrectness:
    def test_matches_row_of_exact_matrix(self, small_transition, small_exact_matrix):
        for query in (0, 5, 23):
            result = proximity_to_node(small_transition, query)
            np.testing.assert_allclose(result.proximities, small_exact_matrix[query, :], atol=1e-7)

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

    def test_converges_from_arbitrary_start(self, small_transition, small_exact_matrix):
        n = small_transition.shape[0]
        rng = np.random.default_rng(0)
        start = rng.random(n) * 5.0
        result = proximity_to_node(small_transition, 9, initial=start)
        np.testing.assert_allclose(result.proximities, small_exact_matrix[9, :], atol=1e-7)

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
        assert isinstance(result, PMPNResult)
        assert result.converged
        assert result.residual < 1e-10
        assert result.iterations > 0

    def test_rejects_bad_query(self, small_transition):
        with pytest.raises(InvalidParameterError):
            proximity_to_node(small_transition, -1)

    def test_rejects_bad_initial_length(self, small_transition):
        with pytest.raises(ValueError):
            proximity_to_node(small_transition, 0, initial=np.ones(3))

    def test_raises_on_failure_by_default(self, small_transition):
        with pytest.raises(ConvergenceError):
            proximity_to_node(small_transition, 0, max_iterations=1, tolerance=1e-14)

    def test_non_raising_mode(self, small_transition):
        result = proximity_to_node(
            small_transition, 0, max_iterations=1, tolerance=1e-14, raise_on_failure=False
        )
        assert not result.converged

    def test_iteration_bound_formula(self):
        assert pmpn_iteration_bound(0.15, 1e-10) == pytest.approx(131, abs=2)

    def test_convergence_rate_bounded_by_one_minus_alpha(self, small_transition):
        # Theorem 2(b) gives 1 - alpha as the *worst-case* rate: the extra
        # iterations for a 1e4-times tighter tolerance never exceed the bound
        # (real graphs often converge faster).
        loose = proximity_to_node(small_transition, 0, tolerance=1e-4).iterations
        tight = proximity_to_node(small_transition, 0, tolerance=1e-8).iterations
        worst_case_gap = np.log(1e-8 / 1e-4) / np.log(1 - 0.15)
        assert tight >= loose
        assert (tight - loose) <= worst_case_gap + 10


# --------------------------------------------------------------------- #
# row sets: bit-identical to the dense iteration
# --------------------------------------------------------------------- #
def dense_pmpn(transition, query, *, alpha=0.15, tolerance=1e-10, initial=None):
    """The dense loop PMPN ran before row sets: every row, every step."""
    n = transition.shape[0]
    transposed = transition.T.tocsr()
    restart = np.zeros(n)
    restart[query] = alpha
    current = np.zeros(n) if initial is None else np.asarray(initial, dtype=float).copy()
    if initial is None:
        current[query] = 1.0
    for iterations in range(1, 2 * pmpn_iteration_bound(alpha, tolerance) + 11):
        nxt = (1.0 - alpha) * (transposed @ current) + restart
        residual = float(np.abs(nxt - current).sum())
        current = nxt
        if residual < tolerance:
            return current, iterations
    raise AssertionError("the dense oracle did not converge")


@st.composite
def shaped_digraphs(draw):
    """Random digraphs of one shape, weighted or not, dangling nodes allowed.

    ``dag``: edges only to higher ids (sources without in-edges, sinks that
    dangle); ``blocks``: several strongly connected rings with forward edges
    between them; ``giant``: one ring over most nodes plus random edges;
    ``random``: unrestricted, cycles everywhere.
    """
    shape = draw(st.sampled_from(["dag", "blocks", "giant", "random"]))
    n = draw(st.integers(min_value=2, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    mask = rng.random((n, n)) < rng.uniform(0.02, 0.3)
    np.fill_diagonal(mask, False)
    if shape == "dag":
        mask = np.triu(mask, 1)
    elif shape == "blocks":
        labels = np.sort(rng.integers(0, max(n // 4, 1), n))
        mask &= labels[:, None] < labels[None, :]
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


def assert_matches_dense_oracle(transition, plan, query, initial=None):
    result = proximity_to_node(transition, query, plan=plan, initial=initial)
    expected, iterations = dense_pmpn(transition, query, initial=initial)
    assert result.proximities.tobytes() == expected.tobytes()
    assert result.iterations == iterations
    return result


def row_set_side(plan, query):
    return "suffix" if isinstance(plan.row_set(query).index, slice) else "ancestors"


@given(shaped_digraphs(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_row_sets_match_the_dense_oracle(transition, seed):
    """Every query of the graph, and one arbitrary start, bit for bit."""
    plan = PMPNPlan(transition)
    n = transition.shape[0]
    edges = transition.nnz
    for query in range(n):
        result = assert_matches_dense_oracle(transition, plan, query)
        rows = plan.row_set(query)
        assert (result.rows, result.edges) == (rows.n_rows, rows.n_edges)
        assert result.rows <= n and result.edges <= edges
        event(f"row set: {row_set_side(plan, query)}")
    start = np.random.default_rng(seed).random(n) * 3.0
    result = assert_matches_dense_oracle(transition, plan, seed % n, initial=start)
    assert (result.rows, result.edges) == (n, edges)


class TestRowSets:
    def test_both_row_sets_are_reached(self):
        # A chain 0 -> 1 -> ... -> 59 with a long tail: the head's suffix is
        # tiny (ancestors), while node 59 sits below every other node.
        chain = sp.diags(np.ones(59), 1, shape=(60, 60), format="csr")
        transition = transition_matrix(DiGraph(chain))
        plan = PMPNPlan(transition)
        assert row_set_side(plan, 0) == "ancestors"
        assert row_set_side(plan, 59) == "suffix"
        for query in (0, 30, 59):
            assert_matches_dense_oracle(transition, plan, query)
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
        for query in range(8):
            assert assert_matches_dense_oracle(transition, plan, query).rows == 8

    def test_dropping_an_ancestor_row_fails_the_property(self, monkeypatch):
        """Negative control: the property sees a row set one ancestor short."""
        ancestors = PMPNPlan.ancestors

        def one_short(plan, query):
            found = ancestors(plan, query)
            return found[:-1] if found.size > 1 else found

        monkeypatch.setattr(PMPNPlan, "ancestors", one_short)
        with pytest.raises(AssertionError):
            test_row_sets_match_the_dense_oracle()

    def test_product_without_the_compiled_kernel(self, small_transition, monkeypatch):
        plan = PMPNPlan(small_transition)
        monkeypatch.setattr(pmpn_module, "_csr_matvec", None)
        for query in (0, 5, 23):
            assert_matches_dense_oracle(small_transition, plan, query)

    def test_plan_of_another_graph_is_rejected(self, small_transition):
        with pytest.raises(ValueError):
            proximity_to_node(
                small_transition, 0, plan=PMPNPlan(transition_matrix(ring_graph(5)))
            )


class TestRowSetsOnBenchmarkGraphs:
    """Rows and edges per step on the perf workloads' graphs (seed 0)."""

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

    def test_process_workers_rebuild_the_plan(self, medium_web_graph, monkeypatch):
        engine = ReverseTopKEngine.build(medium_web_graph)
        queries = [int(q) for q in np.linspace(0, engine.n_nodes - 1, 50)]

        def never_pickled(plan, protocol):
            raise AssertionError("a PMPN plan was pickled")

        # Forked pool workers inherit the patch; spawned ones unpickle an
        # engine that carries none and build their own.
        monkeypatch.setattr(PMPNPlan, "__reduce_ex__", never_pickled)
        clone = pickle.loads(pickle.dumps(engine))
        assert clone._pmpn_plan is not engine._pmpn_plan
        answers = {}
        for backend in ("thread", "process"):
            service = ReverseTopKService(
                engine, ServiceConfig(n_workers=2, backend=backend, cache_capacity=0)
            )
            try:
                answers[backend] = service.serve([(q, 5) for q in queries])
            finally:
                service.close()
        for threaded, forked in zip(answers["thread"], answers["process"]):
            np.testing.assert_array_equal(forked.nodes, threaded.nodes)
            assert forked.proximities_to_query.tobytes() == threaded.proximities_to_query.tobytes()
