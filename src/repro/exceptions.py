"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch a single base class.  Specific subclasses distinguish user input
problems from algorithmic/state problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the library."""


class GraphError(ReproError):
    """Raised when a graph is malformed or an operation is invalid for it."""


class NodeNotFoundError(GraphError, KeyError):
    """Raised when a node identifier does not exist in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class ConvergenceError(ReproError):
    """Raised when an iterative solver fails to converge within its budget."""

    def __init__(self, message: str, iterations: int, residual: float) -> None:
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class InvalidParameterError(ReproError, ValueError):
    """Raised when a caller passes an out-of-range or inconsistent parameter."""


class QueryError(ReproError):
    """Raised when a reverse top-k query cannot be evaluated."""


class ServiceClosedError(ReproError, RuntimeError):
    """Raised when a request reaches a service whose resources are released.

    :meth:`ReverseTopKService.close` is idempotent and safe to call while
    requests are in flight: in-flight calls drain first, and every call that
    arrives afterwards fails fast with this error instead of touching a
    shut-down executor.
    """


class SerializationError(ReproError):
    """Raised when index or graph (de)serialization fails."""
