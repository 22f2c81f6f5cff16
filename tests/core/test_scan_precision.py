"""Float32-screened scanning must be bit-identical to the float64 scan.

The screened path prunes and staircase-checks against a float32 mirror of the
lower-bound plane, escalating only borderline nodes (within the conservative
rounding envelope) to the float64 truth.  These tests attack the envelope from
both sides: randomized sweeps, hand-built near-threshold columns placed within
one ULP of the query proximity, and full engine comparisons over one and several shards
where the statistics — not just the answers — must match.
"""

import numpy as np
import pytest

from repro.core import (
    IndexParams,
    QueryParams,
    ReverseTopKEngine,
    build_index,
    columnar_stage_decisions,
)
from repro.core.bounds import (
    FLOAT32_ABSOLUTE_ENVELOPE,
    FLOAT32_RELATIVE_ENVELOPE,
    float32_prune_envelope,
    float32_staircase_envelope,
)
from repro.core.index import ColumnarView
from repro.graph import transition_matrix


def _decide_both_ways(proximity, columns, k):
    """Run the f64 reference and the f32-screened pipeline on one view."""
    reference = columnar_stage_decisions(proximity, columns, k)
    lower32 = columns.lower.astype(np.float32)
    screened = columnar_stage_decisions(proximity, columns, k, lower32=lower32)
    return reference, screened


def _assert_same_decisions(reference, screened):
    ref_exact, ref_candidates, ref_hits, ref_pruned = reference
    scr_exact, scr_candidates, scr_hits, scr_pruned = screened
    np.testing.assert_array_equal(ref_exact, scr_exact)
    np.testing.assert_array_equal(ref_candidates, scr_candidates)
    np.testing.assert_array_equal(ref_hits, scr_hits)
    assert ref_pruned == scr_pruned


def _view(lower, masses, is_exact=None):
    lower = np.asarray(lower, dtype=np.float64)
    n = lower.shape[1]
    masses = np.asarray(masses, dtype=np.float64)
    if is_exact is None:
        is_exact = np.zeros(n, dtype=bool)
    return ColumnarView(
        lower=lower,
        residual_mass=masses,
        is_exact=np.asarray(is_exact, dtype=bool),
    )


class TestEnvelopes:
    def test_prune_envelope_dominates_float32_rounding(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(0.0, 1.0, size=10_000)
        values = np.concatenate([values, [0.0, 1e-300, 5e-324, 1.0]])
        roundtrip = values.astype(np.float32).astype(np.float64)
        envelope = float32_prune_envelope(roundtrip)
        assert np.all(np.abs(roundtrip - values) <= envelope)

    def test_staircase_envelope_grows_with_mass(self):
        top = np.array([0.25, 0.25])
        small = float32_staircase_envelope(top, np.array([0.0, 0.0]))
        large = float32_staircase_envelope(top, np.array([1.0, 1.0]))
        assert np.all(large > small)

    def test_constants_are_conservative(self):
        assert FLOAT32_RELATIVE_ENVELOPE == float(np.finfo(np.float32).eps)
        assert FLOAT32_ABSOLUTE_ENVELOPE > 0.0


class TestAdversarialColumns:
    """Hand-built columns pinned within one ULP of the decision boundary."""

    def test_threshold_one_ulp_each_side_of_proximity(self):
        p = 0.123456789012345
        thresholds = np.array(
            [
                np.nextafter(p, np.inf),  # prune: p < threshold
                p,  # survive: p >= threshold (tie)
                np.nextafter(p, -np.inf),  # survive
                p * (1.0 + np.finfo(np.float32).eps / 2),
                p * (1.0 - np.finfo(np.float32).eps / 2),
            ]
        )
        n = thresholds.size
        lower = np.vstack([np.full(n, 0.9), thresholds])
        columns = _view(lower, np.zeros(n))
        proximity = np.full(n, p)
        reference, screened = _decide_both_ways(proximity, columns, 2)
        _assert_same_decisions(reference, screened)
        # Sanity: the reference really does split on these columns — the
        # +1 ULP and +eps32/2 thresholds prune, the other three survive.
        assert reference[3] == 2

    def test_subnormal_and_zero_thresholds(self):
        thresholds = np.array([0.0, 5e-324, 1e-300, 1e-45, 1e-38])
        n = thresholds.size
        lower = np.vstack([np.full(n, 1e-200), thresholds])
        lower = np.maximum(lower, thresholds)  # keep rows sorted
        columns = _view(np.sort(lower, axis=0)[::-1], np.zeros(n))
        for p in (0.0, 5e-324, 1e-300, 1e-40):
            proximity = np.full(n, p)
            reference, screened = _decide_both_ways(proximity, columns, 2)
            _assert_same_decisions(reference, screened)

    def test_staircase_tie_at_the_upper_bound(self):
        # One non-exact column whose staircase upper bound we hit exactly,
        # one we miss by one ULP in each direction.
        lower = np.array([[0.5, 0.5, 0.5], [0.3, 0.3, 0.3]])
        masses = np.array([0.1, 0.1, 0.1])
        columns = _view(lower, masses)
        from repro.core.bounds import kth_upper_bounds_batch

        upper = kth_upper_bounds_batch(lower, masses, 2)
        proximity = np.array(
            [upper[0], np.nextafter(upper[1], np.inf), np.nextafter(upper[2], -np.inf)]
        )
        reference, screened = _decide_both_ways(proximity, columns, 2)
        _assert_same_decisions(reference, screened)
        # The tie and the +1 ULP columns are hits; the -1 ULP column is not.
        hits = np.zeros(3, dtype=bool)
        hits[reference[1][reference[2]]] = True
        assert hits.tolist() == [True, True, False]

    def test_exact_columns_shortcut_identically(self):
        lower = np.array([[0.4, 0.4, 0.4], [0.2, 0.2, 0.2]])
        is_exact = np.array([True, False, True])
        columns = _view(lower, np.array([0.0, 0.3, 0.0]), is_exact)
        proximity = np.array([0.2, 0.2, np.nextafter(0.2, -np.inf)])
        reference, screened = _decide_both_ways(proximity, columns, 2)
        _assert_same_decisions(reference, screened)
        np.testing.assert_array_equal(reference[0], [0])

    def test_randomized_sweep_is_bit_identical(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            k = int(rng.integers(1, 6))
            lower = np.sort(rng.uniform(0.0, 0.5, size=(k, n)), axis=0)[::-1]
            # Sprinkle exact ties with the query proximity to stress the
            # boundary comparisons.
            proximity = rng.uniform(0.0, 0.6, size=n)
            tie = rng.random(n) < 0.2
            lower[k - 1, tie] = proximity[tie]
            masses = rng.uniform(0.0, 0.4, size=n) * (rng.random(n) < 0.7)
            is_exact = rng.random(n) < 0.3
            columns = _view(lower, masses, is_exact)
            reference, screened = _decide_both_ways(proximity, columns, k)
            _assert_same_decisions(reference, screened)


def _counters(statistics):
    """Statistics minus the wall-clock fields (those legitimately differ)."""
    return (
        statistics.n_results,
        statistics.n_candidates,
        statistics.n_hits,
        statistics.n_exact_shortcut,
        statistics.n_pruned_immediately,
        statistics.n_refinement_iterations,
        statistics.n_refined_nodes,
        statistics.pmpn_iterations,
        statistics.n_exact_fallbacks,
    )


def _assert_identical_answers(engine_a, engine_b, n, k_values):
    for node in range(n):
        for k in k_values:
            res_a = engine_a.query(node, k=k)
            res_b = engine_b.query(node, k=k)
            np.testing.assert_array_equal(res_a.nodes, res_b.nodes)
            assert _counters(res_a.statistics) == _counters(res_b.statistics)


class TestEngineEquivalence:
    @pytest.fixture(scope="class")
    def matrices(self, small_web_graph):
        return small_web_graph, transition_matrix(small_web_graph)

    def test_scan_precision_is_validated(self, matrices):
        graph, matrix = matrices
        with pytest.raises(ValueError):
            ReverseTopKEngine.build(graph, transition=matrix, scan_precision="half")

    def test_float32_engine_matches_float64_engine(self, matrices):
        graph, matrix = matrices
        params = IndexParams(capacity=12, hub_budget=4)
        baseline = ReverseTopKEngine.build(graph, params, transition=matrix)
        screened = ReverseTopKEngine.build(
            graph, params, transition=matrix, scan_precision="float32"
        )
        assert screened.scan_precision == "float32"
        _assert_identical_answers(baseline, screened, graph.n_nodes, (1, 3, 8))

    def test_float32_engine_matches_after_refinement_writebacks(self, matrices):
        graph, matrix = matrices
        params = IndexParams(capacity=6, hub_budget=2)
        query_params = QueryParams(k=5, update_index=True)
        baseline = ReverseTopKEngine.build(graph, params, transition=matrix)
        screened = ReverseTopKEngine.build(
            graph, params, transition=matrix, scan_precision="float32"
        )
        for node in range(0, graph.n_nodes, 7):
            res_a = baseline.query(node, params=query_params)
            res_b = screened.query(node, params=query_params)
            np.testing.assert_array_equal(res_a.nodes, res_b.nodes)
            assert _counters(res_a.statistics) == _counters(res_b.statistics)
        # The float32 mirror must track every write-back bit-for-bit.
        (shard,) = screened.index.shards
        np.testing.assert_array_equal(
            shard.lower32(), shard.columns.lower.astype(np.float32)
        )

    def test_pickle_preserves_scan_precision(self, matrices):
        import pickle

        graph, matrix = matrices
        params = IndexParams(capacity=6, hub_budget=2)
        screened = ReverseTopKEngine.build(
            graph, params, transition=matrix, scan_precision="float32"
        )
        clone = pickle.loads(pickle.dumps(screened))
        assert clone.scan_precision == "float32"
        res_a = screened.query(3, k=4)
        res_b = clone.query(3, k=4)
        np.testing.assert_array_equal(res_a.nodes, res_b.nodes)


class TestOutOfCoreScreening:
    def test_memmap_float32_layout_matches_one_shard(self, small_web_graph, tmp_path):
        graph = small_web_graph
        matrix = transition_matrix(graph)
        params = IndexParams(capacity=8, hub_budget=3)
        baseline = ReverseTopKEngine.build(graph, params, transition=matrix)
        sharded_index = build_index(
            graph,
            params,
            transition=matrix,
            n_shards=3,
            directory=tmp_path,
            memory_budget=0,
        )
        screened = ReverseTopKEngine(
            matrix, sharded_index, scan_precision="float32"
        )
        # The shards must actually be serving the float32 plane off disk.
        assert len(list(tmp_path.glob("*.lower32.npy"))) == len(sharded_index.shards)
        for shard in sharded_index.shards:
            plane = shard.lower32()
            assert plane.dtype == np.float32
            assert isinstance(plane, np.memmap)
        _assert_identical_answers(baseline, screened, graph.n_nodes, (1, 4))

    def test_update_mode_invalidates_cached_screens(self, small_web_graph, tmp_path):
        # Write-backs promote shard columns; the cached float32 mirror and
        # the per-k screening rows must both refresh, or later queries would
        # prune against stale thresholds.
        graph = small_web_graph
        matrix = transition_matrix(graph)
        params = IndexParams(capacity=6, hub_budget=2)
        query_params = QueryParams(k=4, update_index=True)
        baseline = ReverseTopKEngine.build(graph, params, transition=matrix)
        sharded_index = build_index(
            graph,
            params,
            transition=matrix,
            n_shards=3,
            directory=tmp_path,
            memory_budget=0,
        )
        screened = ReverseTopKEngine(
            matrix, sharded_index, scan_precision="float32"
        )
        for node in range(0, graph.n_nodes, 5):
            res_a = baseline.query(node, params=query_params)
            res_b = screened.query(node, params=query_params)
            np.testing.assert_array_equal(res_a.nodes, res_b.nodes)
            assert _counters(res_a.statistics) == _counters(res_b.statistics)
        for shard in sharded_index.shards:
            np.testing.assert_array_equal(
                np.asarray(shard.lower32()),
                np.asarray(shard.columns.lower, dtype=np.float32),
            )
