"""Tests for the shared validation helpers and the exception hierarchy."""

import numpy as np
import pytest

from repro._validation import (
    check_k,
    check_node_index,
    check_non_negative_float,
    check_non_negative_int,
    check_positive_float,
    check_positive_int,
    check_probability,
)
from repro.exceptions import (
    ConvergenceError,
    GraphError,
    InvalidParameterError,
    NodeNotFoundError,
    QueryError,
    ReproError,
    SerializationError,
    ServiceClosedError,
)


class TestCheckProbability:
    def test_accepts_interior_value(self):
        assert check_probability(0.15, "alpha") == 0.15

    def test_rejects_boundary_when_exclusive(self):
        with pytest.raises(InvalidParameterError):
            check_probability(0.0, "alpha")
        with pytest.raises(InvalidParameterError):
            check_probability(1.0, "alpha")

    def test_accepts_boundary_when_inclusive(self):
        assert check_probability(0.0, "p", inclusive=True) == 0.0
        assert check_probability(1.0, "p", inclusive=True) == 1.0

    def test_rejects_nan(self):
        with pytest.raises(InvalidParameterError):
            check_probability(float("nan"), "p")

    @pytest.mark.parametrize("inclusive", [False, True])
    def test_rejects_values_outside_the_unit_interval(self, inclusive):
        for value in (-0.1, 1.5, float("inf")):
            with pytest.raises(InvalidParameterError):
                check_probability(value, "p", inclusive=inclusive)


class TestIntegerChecks:
    def test_positive_int(self):
        assert check_positive_int(3, "k") == 3

    def test_positive_int_rejects_zero(self):
        with pytest.raises(InvalidParameterError):
            check_positive_int(0, "k")

    def test_positive_int_rejects_bool(self):
        with pytest.raises(InvalidParameterError):
            check_positive_int(True, "k")

    def test_positive_int_rejects_float(self):
        with pytest.raises(InvalidParameterError):
            check_positive_int(2.5, "k")

    def test_non_negative_int_accepts_zero(self):
        assert check_non_negative_int(0, "b") == 0

    def test_non_negative_int_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            check_non_negative_int(-1, "b")

    def test_numpy_integer_accepted(self):
        assert check_positive_int(np.int64(4), "k") == 4


class TestFloatChecks:
    def test_positive_float(self):
        assert check_positive_float(0.5, "eta") == 0.5

    def test_positive_float_rejects_zero(self):
        with pytest.raises(InvalidParameterError):
            check_positive_float(0.0, "eta")

    def test_non_negative_float_accepts_zero(self):
        assert check_non_negative_float(0.0, "omega") == 0.0

    def test_non_negative_float_rejects_inf(self):
        with pytest.raises(InvalidParameterError):
            check_non_negative_float(float("inf"), "omega")

    def test_non_negative_float_rejects_negative_and_nan(self):
        for value in (-1e-300, float("nan")):
            with pytest.raises(InvalidParameterError):
                check_non_negative_float(value, "omega")

    def test_positive_float_rejects_negative_and_non_finite(self):
        for value in (-0.5, float("inf"), float("nan")):
            with pytest.raises(InvalidParameterError):
                check_positive_float(value, "eta")


class TestNodeChecks:
    def test_valid_node(self):
        assert check_node_index(3, 10) == 3

    def test_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            check_node_index(10, 10)
        with pytest.raises(InvalidParameterError):
            check_node_index(-1, 10)

    def test_non_integer(self):
        with pytest.raises(InvalidParameterError):
            check_node_index("a", 10)

    def test_node_index_rejects_bool_and_accepts_numpy_integer(self):
        with pytest.raises(InvalidParameterError):
            check_node_index(True, 10)
        assert check_node_index(np.int32(7), 10) == 7

    def test_check_k_rejects_non_positive(self):
        for k in (0, -3):
            with pytest.raises(InvalidParameterError):
                check_k(k, 10)

    def test_check_k_within_capacity(self):
        assert check_k(5, 100, maximum=10) == 5

    def test_check_k_exceeds_nodes(self):
        with pytest.raises(InvalidParameterError):
            check_k(11, 10)

    def test_check_k_exceeds_capacity(self):
        with pytest.raises(InvalidParameterError):
            check_k(11, 100, maximum=10)

    def test_check_k_without_cap_allows_up_to_n(self):
        assert check_k(100, 100) == 100


class TestNormalisedResults:
    @pytest.mark.parametrize(
        "check, value, expected_type",
        [
            (check_positive_int, np.int64(3), int),
            (check_non_negative_int, np.uint8(0), int),
            (check_positive_float, 2, float),
            (check_non_negative_float, np.float32(0.5), float),
            (check_probability, np.float32(0.5), float),
        ],
    )
    def test_returns_a_python_scalar(self, check, value, expected_type):
        result = check(value, "x")
        assert type(result) is expected_type
        assert result == value

    @pytest.mark.parametrize(
        "call",
        [
            lambda: check_probability(2.0, "alpha"),
            lambda: check_positive_int(0, "alpha"),
            lambda: check_non_negative_int(-1, "alpha"),
            lambda: check_positive_float(-1.0, "alpha"),
            lambda: check_non_negative_float(-1.0, "alpha"),
            lambda: check_node_index(5, 3, "alpha"),
        ],
    )
    def test_error_message_names_the_parameter(self, call):
        with pytest.raises(InvalidParameterError, match="alpha"):
            call()

class TestExceptionHierarchy:
    def test_all_derive_from_repro_error(self):
        assert issubclass(GraphError, ReproError)
        assert issubclass(InvalidParameterError, ReproError)
        assert issubclass(ConvergenceError, ReproError)

    def test_invalid_parameter_is_value_error(self):
        assert issubclass(InvalidParameterError, ValueError)

    def test_node_not_found_is_key_error(self):
        assert issubclass(NodeNotFoundError, KeyError)
        error = NodeNotFoundError(7)
        assert error.node == 7

    def test_convergence_error_carries_context(self):
        error = ConvergenceError("failed", iterations=5, residual=0.1)
        assert error.iterations == 5
        assert error.residual == 0.1

    @pytest.mark.parametrize(
        "error, bases",
        [
            (QueryError, (ReproError,)),
            (SerializationError, (ReproError,)),
            (ServiceClosedError, (ReproError, RuntimeError)),
            (NodeNotFoundError, (GraphError, ReproError)),
        ],
    )
    def test_specific_errors_keep_their_bases(self, error, bases):
        for base in bases:
            assert issubclass(error, base)

    def test_node_not_found_message_names_the_node(self):
        assert "'alice'" in str(NodeNotFoundError("alice"))
