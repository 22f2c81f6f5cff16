"""Property-based tests (hypothesis) for the staircase upper bound (Algorithm 3)."""

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np

from repro.core.bounds import (
    kth_upper_bound,
    kth_upper_bounds_batch,
    staircase_levels,
)


@st.composite
def descending_vectors(draw, min_size: int = 1, max_size: int = 12):
    """A descending non-negative vector plus a k within its length."""
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    values = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=size,
            max_size=size,
        )
    )
    vector = np.sort(np.asarray(values))[::-1]
    k = draw(st.integers(min_value=1, max_value=size))
    return vector, k


class TestUpperBoundProperties:
    @given(descending_vectors(), st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_upper_bound_at_least_kth_lower_bound(self, vector_and_k, residual):
        vector, k = vector_and_k
        bound = kth_upper_bound(vector, residual, k)
        assert bound >= vector[k - 1] - 1e-12

    @given(descending_vectors(), st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_zero_residual_is_tight(self, vector_and_k, residual):
        vector, k = vector_and_k
        assert kth_upper_bound(vector, 0.0, k) == vector[k - 1]

    @given(
        descending_vectors(),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_residual(self, vector_and_k, residual_a, residual_b):
        vector, k = vector_and_k
        low, high = sorted((residual_a, residual_b))
        assert kth_upper_bound(vector, low, k) <= kth_upper_bound(vector, high, k) + 1e-12

    @given(descending_vectors(), st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_bound_dominates_any_feasible_completion(self, vector_and_k, residual):
        """Distribute the residual adversarially (greedily onto the top-k) — the
        resulting k-th value never exceeds the bound."""
        vector, k = vector_and_k
        bound = kth_upper_bound(vector, residual, k)
        # Water-filling simulation: pour residual onto the k largest entries.
        top = vector[:k].astype(float).copy()
        remaining = residual
        for _ in range(1000):
            if remaining <= 1e-15:
                break
            lowest = np.argmin(top)
            gap_candidates = top[top > top[lowest] + 1e-15]
            step = (
                min(remaining, gap_candidates.min() - top[lowest])
                if gap_candidates.size
                else remaining
            )
            top[lowest] += step
            remaining -= step
        achieved_kth = top.min()
        assert achieved_kth <= bound + 1e-9

    @given(descending_vectors(min_size=2))
    @settings(max_examples=100, deadline=None)
    def test_staircase_levels_monotone(self, vector_and_k):
        vector, k = vector_and_k
        levels = staircase_levels(vector, k)
        assert levels[0] == 0.0
        assert np.all(np.diff(levels) >= -1e-12)


def _loop_reference(vector, residual, k):
    """The staircase bound as Eq. 17-18 spell it: two loops over ``k``."""
    top = vector[:k]
    if residual == 0.0:
        return float(top[k - 1])
    levels = [0.0]
    for j in range(1, k):
        levels.append(levels[j - 1] + j * (top[k - j - 1] - top[k - j]))
    for j in range(1, k):
        if levels[j - 1] < residual <= levels[j]:
            return float(top[k - j - 1] - (levels[j] - residual) / j)
    return float(top[0] + (residual - levels[k - 1]) / k)


class TestScalarBatchBitIdentity:
    """The single-candidate bound and the batched bound are one function.

    The scan decides with the batch, the refinement loop with the scalar
    form; a one-ulp disagreement would let the two contradict each other on
    the same candidate, so equality is pinned bit for bit, not to tolerance.
    """

    @given(
        descending_vectors(max_size=60),
        st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=1e-12, allow_nan=False),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            # beyond the last level: the whole staircase floods
            st.floats(min_value=60.0, max_value=1e6, allow_nan=False),
        ),
    )
    @settings(max_examples=400, deadline=None)
    def test_scalar_equals_batch_column(self, vector_and_k, residual):
        vector, k = vector_and_k
        scalar = kth_upper_bound(vector, residual, k)
        batch = kth_upper_bounds_batch(
            vector.reshape(-1, 1), np.array([residual]), k
        )
        assert scalar == batch[0]
        assert scalar == _loop_reference(vector, residual, k)

    @given(descending_vectors(max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_mass_exactly_on_a_level(self, vector_and_k):
        # z_{j-1} < mass <= z_j is closed on the right: a mass equal to a
        # level must pick that level's step in both forms.
        vector, k = vector_and_k
        for level in staircase_levels(vector, k)[1:]:
            scalar = kth_upper_bound(vector, float(level), k)
            batch = kth_upper_bounds_batch(
                vector.reshape(-1, 1), np.array([level]), k
            )
            assert scalar == batch[0]

    def test_validation_survives_vectorisation(self):
        import pytest

        from repro.exceptions import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="descending"):
            kth_upper_bound(np.array([0.1, 0.2, 0.05]), 0.1, 3)
        with pytest.raises(InvalidParameterError):
            kth_upper_bound(np.array([0.2, 0.1]), -1e-3, 2)
