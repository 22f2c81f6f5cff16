"""Tests for the optional-backend probe and its failure modes."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import IndexParams, PropagationKernel, available_backends
from repro.core.backends import (
    load_numba_kernels,
    numba_available,
    require_backend,
)
from repro.exceptions import ConfigurationError

HAS_NUMBA = numba_available()


@pytest.fixture
def tiny_setup():
    matrix = sp.csc_matrix(
        np.array(
            [
                [0.0, 0.5, 0.0],
                [1.0, 0.0, 1.0],
                [0.0, 0.5, 0.0],
            ]
        )
    )
    hub_mask = np.zeros(3, dtype=bool)
    params = IndexParams(capacity=3, hub_budget=0)
    return matrix, hub_mask, params


class TestProbe:
    def test_always_lists_the_pure_numpy_backends(self):
        backends = available_backends()
        assert "scalar" in backends
        assert "vectorized" in backends

    def test_numba_listed_exactly_when_importable(self):
        assert ("numba" in available_backends()) == HAS_NUMBA

    def test_require_accepts_available_backends(self):
        for name in available_backends():
            assert require_backend(name) == name

    def test_require_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            require_backend("cuda")

    def test_params_accept_numba_regardless_of_availability(self):
        # Declaring the backend is a config decision; availability is
        # checked when a kernel is actually constructed.
        assert IndexParams(backend="numba").backend == "numba"


@pytest.mark.skipif(HAS_NUMBA, reason="numba is installed in this environment")
class TestUnavailable:
    def test_require_numba_raises_configuration_error(self):
        with pytest.raises(ConfigurationError, match="pip install repro\\[fast\\]"):
            require_backend("numba")

    def test_loading_kernels_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            load_numba_kernels()

    def test_kernel_construction_raises_configuration_error(self, tiny_setup):
        matrix, hub_mask, params = tiny_setup
        with pytest.raises(ConfigurationError):
            PropagationKernel(matrix, hub_mask, params, backend="numba")

    def test_numba_scan_mode_raises_configuration_error(self, tiny_setup):
        from repro.core import ReverseTopKEngine

        matrix, _, params = tiny_setup
        engine = ReverseTopKEngine.build(matrix, params)
        with pytest.raises(ConfigurationError):
            engine.query(0, k=1, scan_mode="numba")


@pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")
class TestAvailable:
    def test_kernels_load_and_expose_the_three_entry_points(self):
        jit = load_numba_kernels()
        for name in ("block_stats", "bca_block_iteration", "scan_decide"):
            assert callable(getattr(jit, name))

    def test_numba_kernel_builds_states(self, tiny_setup):
        matrix, hub_mask, params = tiny_setup
        kernel = PropagationKernel(matrix, hub_mask, params, backend="numba")
        collected = kernel.run([0, 1, 2])
        assert sorted(collected.sources.tolist()) == [0, 1, 2]
        assert (collected.iterations >= 1).all()
