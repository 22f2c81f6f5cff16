"""Array-native candidate refinement: store hygiene, write-back and scaling.

The equivalence with the scalar reference and the lower/exact/upper sandwich
live in ``tests/properties/test_property_refinement.py``; this module pins the
behaviour around the working set — what a refinement leaves behind in the
store (nothing, for read-only queries), that write-backs round-trip through
the flat layout, and that a step's cost does not depend on the graph size.
"""

import copy
import statistics
import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    IndexParams,
    PropagationKernel,
    QueryParams,
    ReverseTopKEngine,
    build_index,
    refine_node_state,
)
from repro.core.hubs import HubSet
from repro.graph import copying_web_graph, erdos_renyi_graph, transition_matrix
from repro.graph.generators import scale_free_graph
from repro.obs import KernelProfiler
from repro.obs.tracing import Trace
from repro.rwr.linear_solver import ProximityLU

from tests.reference import (
    SeedState,
    assert_same_state,
    initial_node_state,
    reference_scan,
    run_node_bca,
)

#: A deliberately weak index: most candidates need refinement to decide.
WEAK = IndexParams(
    capacity=8, hub_budget=4, propagation_threshold=5e-2, residue_threshold=0.6
)

#: The k=1 wall's index (ROADMAP item 2): no hubs, coarse eta, loose delta.
WALL = IndexParams(
    capacity=8, hub_budget=0, propagation_threshold=5e-3, residue_threshold=0.3
)


@pytest.fixture(scope="module")
def web():
    graph = copying_web_graph(240, out_degree=5, seed=4)
    return graph, transition_matrix(graph)


def _overlays(index):
    return [shard.store.overlay for shard in index.shards]


def _engines(web, tmp_path):
    graph, matrix = web
    yield "one-shard", ReverseTopKEngine(
        matrix, build_index(graph, WEAK, transition=matrix)
    )
    yield "ram-sharded", ReverseTopKEngine(
        matrix, build_index(graph, WEAK, transition=matrix, n_shards=3)
    )
    yield "memmap-sharded", ReverseTopKEngine(
        matrix,
        build_index(
            graph, WEAK, transition=matrix, n_shards=3,
            directory=tmp_path / "layout", memory_budget=0,
        ),
    )


class TestReadOnlyQueriesLeaveTheStoreUntouched:
    def test_no_overlay_growth_and_no_materialisation(self, web, tmp_path):
        # Regression: _refine_candidate once read a dict-backed view of each
        # candidate, which pinned it in the overlay per distinct refined
        # candidate — forever, on the read-only serving path.
        queries = list(range(30, 90))
        answers = {}
        for name, engine in _engines(web, tmp_path):
            assert all(not overlay for overlay in _overlays(engine.index))
            version = engine.index.version
            results = engine.query_many_readonly(queries, k=4)
            refined = sum(r.statistics.n_refined_nodes for r in results)
            assert refined > 20, "the workload must actually refine candidates"
            assert all(not overlay for overlay in _overlays(engine.index)), name
            assert engine.index.version == version
            answers[name] = [r.nodes.tolist() for r in results]
        assert answers["ram-sharded"] == answers["one-shard"]
        assert answers["memmap-sharded"] == answers["one-shard"]

    def test_memmap_segments_are_never_written(self, web, tmp_path):
        graph, matrix = web
        index = build_index(
            graph, WEAK, transition=matrix, n_shards=2,
            directory=tmp_path / "ro", memory_budget=0,
        )
        node = int(np.flatnonzero(~np.asarray(index.shards[0].columns.is_exact))[0])
        arrays = index.state_arrays(node)
        keys, values = arrays.residual
        assert not values.flags.writeable and not keys.flags.writeable
        before = np.array(values)
        engine = ReverseTopKEngine(matrix, index)
        working = engine._kernel.load(arrays)
        try:
            for _ in range(5):
                refine_node_state(
                    working, index, engine.transition, engine._hub_mask,
                    kernel=engine._kernel,
                )
        finally:
            working.release()
        np.testing.assert_array_equal(index.state_arrays(node).residual[1], before)


class TestWriteBack:
    def test_update_query_round_trips_through_the_flat_layout(self, web, tmp_path):
        # Written-back refinements must survive persistence bit for bit and
        # keep the columnar views in step with the stored states.
        graph, matrix = web
        engine = ReverseTopKEngine(matrix, build_index(graph, WEAK, transition=matrix))
        for query in range(30, 50):
            engine.query(query, k=4, update_index=True)
        index = engine.index
        overlay = index.shards[0].store.overlay
        assert overlay, "update queries must write refinements back"
        for node, state in overlay.items():
            np.testing.assert_array_equal(
                index.columns.lower[:, node], state.lower_bounds
            )
            assert index.columns.residual_mass[node] == index.state_residual_mass(state)
            assert state.residual[0].tolist() == sorted(state.residual[0])
            assert state.retained[0].tolist() == sorted(state.retained[0])
        index.persist(tmp_path / "refined")
        loaded = type(index).load(tmp_path / "refined")
        np.testing.assert_array_equal(loaded.columns.lower, index.columns.lower)
        np.testing.assert_array_equal(
            loaded.columns.residual_mass, index.columns.residual_mass
        )

    def test_exact_fallback_writes_only_under_update(self, web):
        graph, matrix = web
        base = build_index(graph, WEAK, transition=matrix)
        for update in (False, True):
            engine = ReverseTopKEngine(matrix, copy.deepcopy(base))
            fallbacks = 0
            for query in range(30, 60):
                result = engine.query(
                    query, params=QueryParams(k=4, update_index=update, max_refinements=1)
                )
                fallbacks += result.statistics.n_exact_fallbacks
            assert fallbacks > 0
            overlay = engine.index.shards[0].store.overlay
            if not update:
                assert not overlay
                continue
            # A fallback replaces the entry by the exact vector: all of the
            # ink retained, none parked at hubs, nothing left to propagate.
            solved = [
                state for state in overlay.values()
                if not state.residual[0].size and not state.hub_ink[0].size
            ]
            assert solved
            for state in solved:
                assert state.retained[1].sum() == pytest.approx(1.0, abs=1e-6)
                np.testing.assert_array_equal(
                    state.lower_bounds,
                    np.sort(state.retained[1])[::-1][: WEAK.capacity],
                )


    def test_repeating_a_query_rewrites_nothing(self):
        # A state the query-aware bound accepted is accepted again as stored:
        # no step, no write-back, no version bump (result caches key on the
        # version; the paper's test alone would re-refine q on every repeat).
        graph = scale_free_graph(300, seed=0)
        matrix = transition_matrix(graph)
        engine = ReverseTopKEngine(matrix, build_index(graph, WALL, transition=matrix))
        first = engine.query(0, 1, update_index=True)
        assert first.statistics.n_refinement_iterations > 0 and 0 in first
        version = engine.index.version
        again = engine.query(0, 1, update_index=True)
        np.testing.assert_array_equal(again.nodes, first.nodes)
        assert again.statistics.n_refinement_iterations == 0
        assert engine.index.version == version


class TestRefineNodeState:
    def test_exact_state_is_left_untouched(self, web):
        graph, matrix = web
        index = build_index(graph, WEAK, transition=matrix)
        hub_mask = index.hubs.mask(graph.n_nodes)
        csc = sp.csc_matrix(matrix)
        hub = index.hubs.nodes[0]
        before = index.state_arrays(hub)
        kernel = PropagationKernel(
            csc, hub_mask, index.params, hubs=index.hubs, hub_matrix=index.hub_matrix
        )
        working = kernel.load(before)
        try:
            assert not refine_node_state(
                working, index, csc, hub_mask, kernel=kernel
            )
            assert_same_state(working.spill(), before)
        finally:
            working.release()


class TestProfilerStepCounts:
    def test_step_reports_active_support_and_edges(self, web):
        graph, matrix = web
        profiler = KernelProfiler()
        csc = sp.csc_matrix(matrix)
        kernel = PropagationKernel(
            csc,
            np.zeros(graph.n_nodes, dtype=bool),
            WEAK,
            hubs=HubSet(()),
            hub_matrix=sp.csc_matrix((graph.n_nodes, 0)),
            profiler=profiler,
        )
        working = kernel.load(initial_node_state(0, False).flat())
        try:
            assert kernel.step(working)
        finally:
            working.release()
        out_degree = int(csc.indptr[1] - csc.indptr[0])
        assert profiler.n_steps == 1
        assert profiler.n_step_active == 1
        assert profiler.n_step_edges == out_degree
        assert 1 <= profiler.n_step_support <= 1 + out_degree


def _median_step_seconds(n_nodes: int, core: sp.csc_matrix, source: int) -> float:
    """Median wall time of one refinement step of ``source`` inside ``n_nodes``."""
    padding = n_nodes - core.shape[0]
    matrix = sp.block_diag(
        [core, sp.identity(padding, format="csc")], format="csc"
    )
    params = IndexParams(capacity=16, hub_budget=0, propagation_threshold=1e-4)
    kernel = PropagationKernel(
        matrix,
        np.zeros(n_nodes, dtype=bool),
        params,
        hubs=HubSet(()),
        hub_matrix=sp.csc_matrix((n_nodes, 0)),
    )
    medians = []
    for _ in range(3):
        working = kernel.load(
            initial_node_state(source, False).flat()
        )
        seconds = []
        try:
            for _ in range(40):
                started = time.perf_counter()
                assert kernel.step(working)
                seconds.append(time.perf_counter() - started)
        finally:
            working.release()
        medians.append(statistics.median(seconds[5:]))
    return min(medians)


class TestStepCostIsIndependentOfGraphSize:
    def test_same_candidate_in_2k_and_200k_nodes(self):
        # The padding nodes are unreachable from the core, so the candidate's
        # trajectory is identical in both graphs; only n differs.  A
        # full-length np.zeros(n) or A @ x per step would cost 100x here.
        core = sp.csc_matrix(
            transition_matrix(copying_web_graph(2000, out_degree=6, seed=2))
        )
        small = _median_step_seconds(2_000, core, source=1500)
        large = _median_step_seconds(200_000, core, source=1500)
        assert large / small < 3.0, (small, large)


class TestRefinementConvergesByConstruction:
    def test_every_step_sheds_an_alpha_share_of_the_residue(self, web):
        # No hubs, no dangling nodes: nothing leaves r except the alpha share
        # each pushed unit retains, so the mass falls by exactly that factor
        # — whatever eta the index was built with.
        graph, matrix = web
        index = build_index(graph, WALL, transition=matrix)
        engine = ReverseTopKEngine(matrix, index)
        for node in (3, 77, 200):
            working = engine._kernel.load(index.state_arrays(node))
            try:
                mass = working.residual_mass(index.hub_deficit)
                assert mass > WALL.propagation_threshold
                for _ in range(12):
                    assert refine_node_state(
                        working, index, engine.transition, engine._hub_mask,
                        kernel=engine._kernel,
                    )
                    shed = working.residual_mass(index.hub_deficit)
                    assert shed == pytest.approx((1.0 - WALL.alpha) * mass, rel=1e-12)
                    mass = shed
            finally:
                working.release()

    def test_build_still_stops_at_eta(self, web):
        # The all-residue rule is query-time only: a built state is what the
        # scalar reference leaves at the configured eta, step for step.
        graph, matrix = web
        csc = sp.csc_matrix(matrix)
        index = build_index(graph, WALL, transition=matrix)
        hub_mask = index.hubs.mask(graph.n_nodes)
        for node in (3, 77, 200):
            reference = run_node_bca(
                initial_node_state(node, False), csc, hub_mask, index.params
            )
            built = SeedState.of(index.state_arrays(node))
            assert built.iterations == reference.iterations
            assert built.residual == pytest.approx(reference.residual, abs=1e-12)
            assert built.retained == pytest.approx(reference.retained, abs=1e-12)

    def test_the_k1_wall_decides_without_the_exact_fallback(self):
        # At k=1 the query node is (nearly) the only candidate of its own
        # query, and the paper's test can never admit it.  Every such query
        # must decide inside the refinement budget, the same way on every
        # path, and agree with the brute-force rank of q in p_q.
        graph = scale_free_graph(300, seed=0)
        matrix = transition_matrix(graph)
        base = build_index(graph, WALL, transition=matrix)
        exact = ProximityLU(matrix).matrix()
        n = graph.n_nodes
        membership = {}
        for update in (True, False):
            for scan in ("engine", "reference"):
                engine = ReverseTopKEngine(matrix, copy.deepcopy(base))
                steps = refined = 0
                members = []
                for query in range(n):
                    if scan == "engine":
                        result = engine.query(query, 1, update_index=update)
                        statistics = result.statistics
                        answer = result.nodes
                    else:
                        answer, counters = reference_scan(
                            engine, query, 1, update_index=update
                        )
                        statistics = SimpleNamespace(**counters)
                    assert statistics.n_exact_fallbacks == 0, query
                    # The wall was 64 steps + a solve per candidate.  A
                    # candidate needs (1-alpha)^t * mass under its gap to the
                    # k-th other entry, so near-ties take longer than the
                    # benchmark's ~11: measured here, mean 14 per candidate,
                    # worst query 30 per candidate (q=290: two candidates,
                    # gap 0.026 on a mass of 0.3) — pinned per query below
                    # the budget, not only on average.
                    assert (
                        statistics.n_refinement_iterations
                        <= 32 * statistics.n_refined_nodes
                    ), query
                    steps += statistics.n_refinement_iterations
                    refined += statistics.n_refined_nodes
                    members.append(query in answer)
                assert refined >= n // 2, "the weak index must leave q undecided"
                assert steps <= 20 * refined
                membership[update, scan] = members
        reference = membership[True, "engine"]
        assert all(members == reference for members in membership.values())
        # Which bound admitted q is visible from the outside (aim 4).
        engine = ReverseTopKEngine(matrix, copy.deepcopy(base))
        member = reference.index(True)
        with Trace() as trace:
            engine.query(member, 1, update_index=False)
        noted = trace.root.find("engine.query").annotations
        assert noted["n_query_aware_hits"] == 1
        assert noted["n_staircase_hits"] == 0 and noted["n_exact_fallbacks"] == 0
        assert not all(reference), "the graph must have non-members too"
        for query in range(n):
            gap = exact[query, query] - np.delete(exact[:, query], query).max()
            if abs(gap) > 1e-9:
                assert reference[query] == (gap > 0), query


class TestDifferentialSweepAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("family", ["copying-web", "erdos-renyi"])
    def test_every_query_and_depth(self, family, seed, reverse_topk_checker):
        # Small on purpose: at k = K every node has one query sitting exactly
        # on its K-th value, which only the exact fallback decides.
        if family == "copying-web":
            graph = copying_web_graph(24, out_degree=3, seed=seed)
            hub_budget = (2, 4)[seed % 2]
        else:
            graph = erdos_renyi_graph(20, 0.3, seed=seed)
            hub_budget = (0, 3)[seed % 2]
        matrix = transition_matrix(graph)
        params = IndexParams(
            capacity=8,
            hub_budget=hub_budget,
            propagation_threshold=1e-2,
            residue_threshold=0.5,
            rounding_threshold=(1e-6, 1e-3)[seed % 4 // 2],
        )
        base = build_index(graph, params, transition=matrix)
        exact = ProximityLU(matrix).matrix()
        for update in (False, True):
            engine = ReverseTopKEngine(matrix, copy.deepcopy(base))
            for k in (1, 2, params.capacity // 2, params.capacity):
                for query in range(graph.n_nodes):
                    result = engine.query(query, k, update_index=update)
                    reverse_topk_checker(result.nodes, exact, query, k)
