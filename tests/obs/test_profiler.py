"""Profiler tests: null-sink contract, kernel hooks, registry mirroring."""

from __future__ import annotations

import pickle

import numpy as np

import scipy.sparse as sp

from repro.core import IndexParams, PropagationKernel, build_index
from repro.core.hubs import HubSet
from repro.graph import transition_matrix
from repro.obs import NULL_PROFILER, KernelProfiler, MetricsRegistry, NullProfiler

from tests.reference import assert_same_state, initial_node_state


def _kernel(graph, profiler=None):
    matrix = transition_matrix(graph)
    hub_mask = np.zeros(graph.n_nodes, dtype=bool)
    hub_mask[:3] = True
    params = IndexParams(capacity=10, hub_budget=3)
    # A zero hub matrix is enough for refinement working sets to load.
    hubs = HubSet(range(3))
    hub_matrix = sp.csc_matrix((graph.n_nodes, 3))
    kernel = PropagationKernel(
        matrix, hub_mask, params, hubs=hubs, hub_matrix=hub_matrix,
        profiler=profiler,
    )
    return kernel, matrix


def _refine(kernel, source, steps=3):
    """Load, step and release one refinement working set."""
    working = kernel.load(initial_node_state(source, False).flat())
    try:
        for _ in range(steps):
            kernel.step(working)
    finally:
        working.release()


class TestNullProfiler:
    def test_disabled_and_callable(self):
        assert NULL_PROFILER.enabled is False
        NULL_PROFILER.on_block_iteration(n_live=1, seconds=0.0)
        NULL_PROFILER.on_spill(n_sources=1, seconds=0.0)
        NULL_PROFILER.on_step(n_active=1, n_support=1, n_edges=1)
        NULL_PROFILER.on_run(n_sources=1, plane_bytes=0)

    def test_kernel_defaults_to_null_sink(self, small_web_graph):
        kernel, _ = _kernel(small_web_graph)
        assert kernel.profiler is NULL_PROFILER

    def test_picklable_with_kernel(self, small_web_graph):
        kernel, _ = _kernel(small_web_graph)
        clone = pickle.loads(pickle.dumps(kernel))
        assert isinstance(clone.profiler, NullProfiler)
        assert clone.profiler.enabled is False


class TestKernelProfiler:
    def test_run_populates_aggregates(self, small_web_graph):
        profiler = KernelProfiler()
        kernel, _ = _kernel(small_web_graph, profiler=profiler)
        sources = np.arange(3, 13, dtype=np.int64)  # non-hub nodes
        kernel.run(sources)
        assert profiler.n_runs == 1
        assert profiler.n_sources == 10
        assert profiler.n_block_iterations > 0
        assert profiler.n_live_columns >= profiler.n_block_iterations
        assert profiler.product_seconds > 0.0
        assert profiler.peak_plane_bytes > 0
        snapshot = profiler.as_dict()
        assert snapshot["n_runs"] == 1
        assert 0.0 <= snapshot["workspace_hit_rate"] <= 1.0

    def test_profiled_run_is_bit_identical(self, small_web_graph):
        from tests.conftest import run_states

        plain_kernel, _ = _kernel(small_web_graph)
        profiled_kernel, _ = _kernel(
            small_web_graph, profiler=KernelProfiler()
        )
        sources = np.arange(3, 15, dtype=np.int64)
        plain = run_states(plain_kernel, sources)
        profiled = run_states(profiled_kernel, sources)
        assert len(plain) == len(profiled)
        for expected, observed in zip(plain, profiled):
            assert_same_state(expected, observed)

    def test_workspace_reuse_shows_up_across_runs(self, small_web_graph):
        # Refinement working sets borrow their scratch from the kernel's
        # workspace: the second candidate reuses the first one's vectors,
        # and the next run reports the cumulative reuse.
        profiler = KernelProfiler()
        kernel, _ = _kernel(small_web_graph, profiler=profiler)
        _refine(kernel, 3)
        kernel.run(np.arange(3, 11, dtype=np.int64))
        misses = profiler.workspace_misses
        assert misses > 0
        _refine(kernel, 4)
        kernel.run(np.arange(3, 11, dtype=np.int64))
        assert profiler.workspace_misses == misses
        assert profiler.workspace_hits > 0
        assert profiler.workspace_hit_rate > 0.0

    def test_registry_mirroring(self, small_web_graph):
        registry = MetricsRegistry()
        profiler = KernelProfiler(registry=registry)
        kernel, _ = _kernel(small_web_graph, profiler=profiler)
        for source in (3, 4):
            _refine(kernel, source)
            kernel.run(np.arange(3, 9, dtype=np.int64))
        payload = registry.as_dict()
        runs = payload["repro_kernel_runs_total"]["samples"]
        assert sum(sample["value"] for sample in runs) == 2
        iterations = payload["repro_kernel_block_iterations_total"]["samples"]
        assert sum(s["value"] for s in iterations) == profiler.n_block_iterations
        assert all(sample["labels"] == {} for sample in runs + iterations)
        steps = payload["repro_kernel_steps_total"]["samples"][0]["value"]
        assert steps == profiler.n_steps == 6
        # The monotonic mirror of the cumulative workspace snapshot matches
        # the profiler's own (latest-snapshot) counters.
        hits = payload["repro_kernel_workspace_hits_total"]["samples"][0]["value"]
        assert hits == profiler.workspace_hits

    def test_build_emits_into_default_registry(self, small_web_graph):
        from repro.obs import get_registry

        before = get_registry().counter("repro_index_builds_total").value
        build_index(small_web_graph, IndexParams(capacity=10, hub_budget=3))
        after = get_registry().counter("repro_index_builds_total").value
        assert after == before + 1
