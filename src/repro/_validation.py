"""Internal argument-validation helpers shared across the library.

These helpers raise :class:`repro.exceptions.InvalidParameterError` with
consistent, descriptive messages so that every public entry point reports
bad input the same way.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .exceptions import InvalidParameterError


def check_probability(value: float, name: str, *, inclusive: bool = False) -> float:
    """Validate that ``value`` is a probability.

    Parameters
    ----------
    value:
        The value to check.
    name:
        Parameter name used in the error message.
    inclusive:
        When ``True`` the closed interval ``[0, 1]`` is accepted, otherwise
        the open interval ``(0, 1)`` is required.
    """
    value = float(value)
    if not np.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise InvalidParameterError(f"{name} must be in [0, 1], got {value!r}")
    else:
        if not 0.0 < value < 1.0:
            raise InvalidParameterError(f"{name} must be in (0, 1), got {value!r}")
    return value


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a strictly positive integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise InvalidParameterError(f"{name} must be positive, got {value}")
    return int(value)


def check_non_negative_int(value: int, name: str) -> int:
    """Validate that ``value`` is a non-negative integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidParameterError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 0:
        raise InvalidParameterError(f"{name} must be non-negative, got {value}")
    return int(value)


def check_positive_float(value: float, name: str) -> float:
    """Validate that ``value`` is a strictly positive finite float."""
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise InvalidParameterError(f"{name} must be a positive finite number, got {value!r}")
    return value


def check_non_negative_float(value: float, name: str) -> float:
    """Validate that ``value`` is a non-negative finite float."""
    value = float(value)
    if not np.isfinite(value) or value < 0.0:
        raise InvalidParameterError(f"{name} must be a non-negative finite number, got {value!r}")
    return value


def check_node_index(node: int, n_nodes: int, name: str = "node") -> int:
    """Validate that ``node`` is a valid node index for a graph of ``n_nodes``."""
    if isinstance(node, bool) or not isinstance(node, (int, np.integer)):
        raise InvalidParameterError(f"{name} must be an integer index, got {type(node).__name__}")
    node = int(node)
    if not 0 <= node < n_nodes:
        raise InvalidParameterError(
            f"{name} must be in [0, {n_nodes - 1}], got {node}"
        )
    return node


def check_k(k: int, n_nodes: int, *, maximum: int | None = None) -> int:
    """Validate a top-k parameter against the graph size and an optional cap."""
    k = check_positive_int(k, "k")
    if k > n_nodes:
        raise InvalidParameterError(f"k={k} exceeds the number of nodes ({n_nodes})")
    if maximum is not None and k > maximum:
        raise InvalidParameterError(f"k={k} exceeds the index capacity K={maximum}")
    return k


def as_node_array(nodes: Iterable[int], n_nodes: int, name: str = "nodes") -> np.ndarray:
    """Convert an iterable of node ids to a validated ``int64`` array."""
    array = np.asarray(list(nodes), dtype=np.int64)
    if array.ndim != 1:
        raise InvalidParameterError(f"{name} must be one-dimensional")
    if array.size and (array.min() < 0 or array.max() >= n_nodes):
        raise InvalidParameterError(
            f"{name} contains ids outside [0, {n_nodes - 1}]"
        )
    return array
