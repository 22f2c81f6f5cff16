"""Tests for Algorithm 3 — the staircase upper bound."""

import statistics
import time

import numpy as np
import pytest

from repro.core.bounds import (
    is_valid_upper_bound,
    kth_other_upper_bound,
    kth_upper_bound,
    staircase_levels,
)
from repro.exceptions import InvalidParameterError

from tests.reference import kth_other_upper_bound as reference_kth_other_upper_bound


class TestStaircaseLevels:
    def test_levels_monotone(self):
        lower = np.array([0.5, 0.4, 0.3, 0.2, 0.1])
        levels = staircase_levels(lower, 5)
        assert levels[0] == 0.0
        assert all(levels[i] <= levels[i + 1] for i in range(4))

    def test_levels_match_hand_computation(self):
        # k=3, lower = [0.5, 0.3, 0.1]: z1 = 1*(0.3-0.1)=0.2, z2 = z1+2*(0.5-0.3)=0.6
        levels = staircase_levels(np.array([0.5, 0.3, 0.1]), 3)
        np.testing.assert_allclose(levels, [0.0, 0.2, 0.6])

    def test_requires_descending_input(self):
        with pytest.raises(InvalidParameterError):
            staircase_levels(np.array([0.1, 0.5]), 2)

    def test_requires_enough_entries(self):
        with pytest.raises(InvalidParameterError):
            staircase_levels(np.array([0.5]), 3)


class TestKthUpperBound:
    def test_zero_residual_returns_kth_lower_bound(self):
        lower = np.array([0.5, 0.4, 0.3])
        assert kth_upper_bound(lower, 0.0, 3) == pytest.approx(0.3)

    def test_partial_fill_case(self):
        # k=3, lower=[0.5,0.3,0.1], residue 0.1 fits between z0=0 and z1=0.2:
        # ub = p̂(2) - (z1 - r)/1 = 0.3 - 0.1 = 0.2... wait that lowers below p̂(2)?
        # Eq 18: ub = p̂(k-j) - (z_j - r)/j with j=1 -> 0.3 - (0.2-0.1)/1 = 0.2.
        value = kth_upper_bound(np.array([0.5, 0.3, 0.1]), 0.1, 3)
        assert value == pytest.approx(0.2)
        assert value >= 0.1  # never below the current k-th lower bound

    def test_flood_case(self):
        # Residue larger than z_{k-1} floods the staircase.
        lower = np.array([0.5, 0.3, 0.1])
        value = kth_upper_bound(lower, 1.0, 3)
        assert value == pytest.approx(0.5 + (1.0 - 0.6) / 3)

    def test_k_equals_one(self):
        assert kth_upper_bound(np.array([0.4]), 0.2, 1) == pytest.approx(0.6)

    def test_never_below_kth_lower_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            k = int(rng.integers(1, 8))
            lower = np.sort(rng.random(k + 3))[::-1]
            residue = float(rng.random() * 2)
            assert kth_upper_bound(lower, residue, k) >= lower[k - 1] - 1e-12

    def test_monotone_in_residual(self):
        lower = np.array([0.5, 0.4, 0.3, 0.2])
        bounds = [kth_upper_bound(lower, r, 4) for r in (0.0, 0.1, 0.5, 1.0)]
        assert all(bounds[i] <= bounds[i + 1] + 1e-12 for i in range(3))

    def test_pads_short_lower_bound_list(self):
        # Fewer than k known values: zeros pad, bound still valid.
        value = kth_upper_bound(np.array([0.3]), 0.1, 3)
        assert value >= 0.0

    def test_rejects_negative_residual(self):
        with pytest.raises(InvalidParameterError):
            kth_upper_bound(np.array([0.5, 0.2]), -0.1, 2)

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidParameterError):
            kth_upper_bound(np.array([0.5]), 0.1, 0)

    def test_is_valid_upper_bound_helper(self):
        assert is_valid_upper_bound(0.5, 0.4)
        assert not is_valid_upper_bound(0.3, 0.4)


class TestUpperBoundSoundnessAgainstTruth:
    def test_bound_dominates_true_kth_value(self, small_transition, small_exact_matrix):
        """Pouring the residue of a truncated BCA run never undercuts the truth."""
        from repro.core import IndexParams, PropagationKernel

        k = 5
        params = IndexParams(capacity=k + 2, hub_budget=0, propagation_threshold=1e-2)
        no_hubs = np.zeros(small_transition.shape[0], dtype=bool)
        kernel = PropagationKernel(small_transition, no_hubs, params)
        for node in (0, 4, 17, 33):
            ((_, partial),) = kernel.run([node]).state_arrays()
            lower = np.sort(partial.retained[1])[::-1][: k + 2]
            bound = kth_upper_bound(lower, partial.residual[1].sum(), k)
            exact_kth = np.sort(small_exact_matrix[:, node])[-k]
            assert bound >= exact_kth - 1e-9


class TestBatchWorkspace:
    """The optional BoundsWorkspace must never change a single bit."""

    def _random_case(self, rng):
        K = int(rng.integers(1, 9))
        m = int(rng.integers(0, 50))
        k = int(rng.integers(1, K + 1))
        lower = np.sort(rng.random((K, m)), axis=0)[::-1]
        masses = rng.random(m) * rng.choice([0.0, 1e-6, 0.1, 2.0])
        return lower, masses, k

    def test_workspace_results_bit_identical(self):
        from repro.core.bounds import BoundsWorkspace, kth_upper_bounds_batch

        rng = np.random.default_rng(7)
        workspace = BoundsWorkspace()
        for _ in range(100):
            lower, masses, k = self._random_case(rng)
            plain = kth_upper_bounds_batch(lower, masses, k)
            pooled = kth_upper_bounds_batch(lower, masses, k, workspace=workspace)
            np.testing.assert_array_equal(plain, pooled)

    def test_workspace_handles_float32_input(self):
        from repro.core.bounds import BoundsWorkspace, kth_upper_bounds_batch

        rng = np.random.default_rng(11)
        workspace = BoundsWorkspace()
        for _ in range(50):
            lower, masses, k = self._random_case(rng)
            narrow = lower.astype(np.float32)
            plain = kth_upper_bounds_batch(narrow, masses, k)
            pooled = kth_upper_bounds_batch(narrow, masses, k, workspace=workspace)
            np.testing.assert_array_equal(plain, pooled)

    def test_workspace_shrinks_and_grows_across_calls(self):
        from repro.core.bounds import BoundsWorkspace, kth_upper_bounds_batch

        rng = np.random.default_rng(13)
        workspace = BoundsWorkspace()
        for m in (40, 3, 0, 17, 40, 1):
            lower = np.sort(rng.random((5, m)), axis=0)[::-1]
            masses = rng.random(m)
            plain = kth_upper_bounds_batch(lower, masses, 4)
            pooled = kth_upper_bounds_batch(lower, masses, 4, workspace=workspace)
            np.testing.assert_array_equal(plain, pooled)

    def test_output_is_not_a_workspace_buffer(self):
        from repro.core.bounds import BoundsWorkspace, kth_upper_bounds_batch

        workspace = BoundsWorkspace()
        lower = np.array([[0.5, 0.4], [0.3, 0.2]])
        masses = np.array([0.1, 0.0])
        first = kth_upper_bounds_batch(lower, masses, 2, workspace=workspace)
        kept = first.copy()
        kth_upper_bounds_batch(lower[:, ::-1].copy(), masses[::-1].copy(), 2, workspace=workspace)
        np.testing.assert_array_equal(first, kept)


def _staircase(capacity: int, seed: int):
    """A descending top-``capacity`` with a tie and a zero tail, and its nodes."""
    rng = np.random.default_rng(seed)
    lower = np.sort(rng.random(capacity) * 10.0 ** rng.integers(-6, 0, capacity))[::-1]
    if capacity > 2:
        lower[1] = lower[0]
        lower[-1] = 0.0
    return lower, rng.permutation(10 * capacity)[:capacity]


class TestKthOtherUpperBound:
    """The list-based bound equals the numpy formula of ``tests/reference.py`` bit for bit."""

    MASSES = (0.0, 1e-9, 0.05, 0.3, 2.0)
    GAPS = (-0.1, 0.0, 0.01, 0.3, 5.0)  # negative, zero, inside and above the mass

    def _assert_equal(self, lower, top, query, k):
        for mass in self.MASSES:
            for gap in self.GAPS:
                got = kth_other_upper_bound(lower, top, query, mass, gap, k)
                expected = reference_kth_other_upper_bound(lower, top, query, mass, gap, k)
                assert type(got) is float
                assert got == expected, (k, query, mass, gap)

    def test_capacity_one_with_q_at_rank_zero(self):
        # q's step leaves; the original array's last entry (q's own) fills
        # the vacated slot, so the pour starts from 0.4, not from zero.
        lower, top = np.array([0.4]), np.array([7])
        self._assert_equal(lower, top, 7, 1)
        assert kth_other_upper_bound(lower, top, 7, 0.3, 0.1, 1) == 0.4 + (0.3 - 0.1)

    @pytest.mark.parametrize("capacity", [1, 2, 5, 16, 50])
    def test_every_depth_and_rank(self, capacity):
        lower, top = _staircase(capacity, seed=capacity)
        absent = int(top.max()) + 1
        for k in range(1, capacity + 1):  # k = K included
            ranks = {0, k - 1, min(k, capacity - 1)}  # ... and below k when k < K
            for rank in sorted(ranks):
                self._assert_equal(lower, top, int(top[rank]), k)
            self._assert_equal(lower, top, absent, k)

    def test_lower_shorter_than_k(self):
        lower, top = np.array([0.5, 0.2]), np.array([3, 9])
        for query in (3, 9, 4):
            for k in (3, 4):
                self._assert_equal(lower, top, query, k)

    def test_zero_mass_is_the_kth_other_entry(self):
        lower, top = np.array([0.5, 0.3, 0.2]), np.array([1, 2, 3])
        assert kth_other_upper_bound(lower, top, 1, 0.0, 0.0, 2) == 0.2
        assert kth_other_upper_bound(lower, top, 4, 0.0, 0.0, 2) == 0.3
        # A known gap above the mass leaves no mass to pour.
        assert kth_other_upper_bound(lower, top, 4, 0.1, 0.5, 2) == 0.3

    def test_rejects_what_the_numpy_formula_rejects(self):
        lower, top = np.array([0.2, 0.5]), np.array([1, 2])
        for bound in (kth_other_upper_bound, reference_kth_other_upper_bound):
            with pytest.raises(InvalidParameterError):
                bound(lower, top, 9, 0.1, 0.0, 2)  # not descending
            with pytest.raises(InvalidParameterError):
                bound(lower[::-1], top, 9, float("nan"), 0.0, 2)
            with pytest.raises(InvalidParameterError):
                bound(lower[::-1], top, 9, float("inf"), 0.0, 2)
            with pytest.raises(InvalidParameterError):
                bound(lower[::-1], top, 9, 0.1, 0.0, 0)

    @pytest.mark.parametrize("capacity", [16, 50])
    def test_a_call_costs_microseconds(self, capacity):
        # One call per refinement round of a candidate; k = K is the longest
        # staircase.  Loose enough for a slow CI runner (about 5 and 10 us
        # on a 2-core x86 box).
        lower, top = _staircase(capacity, seed=1)
        query, gap = int(top[0]), np.float64(1e-3)
        seconds = []
        for _ in range(2000):
            started = time.perf_counter()
            kth_other_upper_bound(lower, top, query, 0.3, gap, capacity)
            seconds.append(time.perf_counter() - started)
        assert statistics.median(seconds) <= 20e-6
