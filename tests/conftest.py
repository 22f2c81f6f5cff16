"""Shared fixtures: small graphs, transition matrices and exact oracles.

All fixtures are deterministic (fixed seeds) and module-scoped where the
object is immutable, so the suite stays fast while individual tests remain
independent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IndexParams, build_index
from repro.graph import (
    DiGraph,
    coauthorship_graph,
    copying_web_graph,
    transition_matrix,
    trust_graph,
)
from repro.rwr import ProximityLU


@pytest.fixture(scope="session")
def small_web_graph() -> DiGraph:
    """A 60-node web-like graph used across unit tests."""
    return copying_web_graph(60, out_degree=4, seed=11)


@pytest.fixture(scope="session")
def medium_web_graph() -> DiGraph:
    """A 150-node web-like graph for integration-style tests."""
    return copying_web_graph(150, out_degree=5, seed=5)


@pytest.fixture(scope="session")
def small_trust_graph() -> DiGraph:
    """A 70-node trust network (denser, reciprocated edges)."""
    return trust_graph(70, seed=3)


@pytest.fixture(scope="session")
def weighted_coauthor_graph():
    """A weighted co-authorship graph ``(graph, paper_counts)``."""
    return coauthorship_graph(60, n_prolific=2, seed=17)


@pytest.fixture(scope="session")
def small_transition(small_web_graph):
    """Column-stochastic transition matrix of the small web graph."""
    return transition_matrix(small_web_graph)


@pytest.fixture(scope="session")
def small_exact_matrix(small_transition):
    """Exact dense proximity matrix of the small web graph (LU oracle)."""
    return ProximityLU(small_transition).matrix()


@pytest.fixture(scope="session")
def small_params() -> IndexParams:
    """Index parameters scaled for the unit-test graphs."""
    return IndexParams(capacity=15, hub_budget=4)


@pytest.fixture(scope="session")
def small_index(small_web_graph, small_transition, small_params):
    """A pre-built index over the small web graph (shared, not mutated).

    Tests that refine or update the index must deep-copy it first (or build
    their own) so this shared fixture stays pristine.
    """
    return build_index(small_web_graph, small_params, transition=small_transition)


def assert_reverse_topk_consistent(result_nodes, exact_matrix, query, k, *, atol=1e-9):
    """Tie-aware comparison of a reverse top-k answer against the exact matrix.

    Nodes whose membership is numerically ambiguous (``|p_u(q) - kth| <= atol``)
    may legitimately appear in either answer; everything else must match.
    """
    result = {int(v) for v in result_nodes}
    n = exact_matrix.shape[0]
    for node in range(n):
        column = exact_matrix[:, node]
        kth = np.sort(column)[-k]
        value = column[query]
        if value > kth + atol:
            assert node in result, f"node {node} (clear member) missing from result"
        elif value < kth - atol:
            assert node not in result, f"node {node} (clear non-member) wrongly included"


def run_states(kernel, sources):
    """``kernel.run(sources)`` as by-value ``NodeState`` views aligned with ``sources``."""
    by_source = {
        source: arrays.to_state()
        for source, arrays in kernel.run(sources).state_arrays()
    }
    return [by_source[int(source)] for source in sources]


@pytest.fixture(scope="session")
def reverse_topk_checker():
    """Expose the tie-aware checker to test modules as a fixture."""
    return assert_reverse_topk_consistent
