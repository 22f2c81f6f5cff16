"""Kernel profiling sinks: per-chunk iteration, spill and product accounting.

The blocked BCA engine (:class:`~repro.core.propagation.PropagationKernel`)
is the cost center of index construction and query refinement, but its
inner loop is exactly the place where instrumentation must cost nothing
when unused.  The contract:

* every kernel carries a ``profiler`` attribute, defaulting to the shared
  module-level :data:`NULL_PROFILER` whose ``enabled`` flag is ``False``;
* hot paths hoist one check — ``prof = kernel.profiler if
  kernel.profiler.enabled else None`` — and only read clocks / call hooks
  when a real sink is attached, so the disabled overhead is a single
  attribute load per run (asserted by
  ``benchmarks/bench_observability_overhead.py``);
* :class:`KernelProfiler` is the reference sink: thread-safe aggregate
  counters (chunk iterations, live-column totals, product and spill
  seconds, sparse-plane bytes high-water, refinement-workspace reuse
  hits/misses), optionally
  mirrored into a :class:`~repro.obs.registry.MetricsRegistry` so kernel
  internals appear in the same exposition as serving metrics.

Custom sinks only need the four ``on_*`` methods and ``enabled = True``;
they are called from whichever thread runs the kernel, so they must be
thread-safe if one kernel is shared across threads.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

__all__ = ["KernelProfiler", "NullProfiler", "NULL_PROFILER"]


class NullProfiler:
    """The default do-nothing sink; ``enabled`` is ``False``.

    Stateless and picklable, so kernels (and the engines that own them)
    can be shipped to process-pool workers with the default sink attached.
    """

    enabled = False

    def on_block_iteration(self, **kwargs: object) -> None:
        """One chunk-wide BCA step advanced (never called when disabled)."""

    def on_spill(self, **kwargs: object) -> None:
        """A batch of converged columns was spilled to node states."""

    def on_step(self, **kwargs: object) -> None:
        """One single-source refinement step ran."""

    def on_run(self, **kwargs: object) -> None:
        """One multi-source run completed."""


#: Shared default sink — the entire cost of profiling-off code paths is
#: reading its ``enabled`` flag.
NULL_PROFILER = NullProfiler()


class KernelProfiler:
    """Aggregating profiler sink, optionally mirrored into a registry.

    Parameters
    ----------
    registry:
        When given, the aggregates are also emitted as registry metrics
        (``repro_kernel_*``), so kernel internals share an exposition with
        the serving layer.
    """

    enabled = True

    def __init__(self, registry=None) -> None:
        self._lock = threading.Lock()
        self.n_runs = 0
        self.n_sources = 0
        self.n_block_iterations = 0
        self.n_live_columns = 0
        self.n_steps = 0
        # What explains a slow refinement step: how many nodes pushed, how
        # wide the working set's support was, how many edges were pushed.
        self.n_step_active = 0
        self.n_step_support = 0
        self.n_step_edges = 0
        self.n_spills = 0
        self.n_spilled_sources = 0
        self.product_seconds = 0.0
        self.spill_seconds = 0.0
        self.peak_plane_bytes = 0
        self.workspace_hits = 0
        self.workspace_misses = 0
        self._m: Optional[Dict[str, object]] = None
        if registry is not None:
            self._m = {
                "iterations": registry.counter(
                    "repro_kernel_block_iterations_total",
                    "Blocked BCA iterations advanced",
                ),
                "live": registry.counter(
                    "repro_kernel_live_columns_total",
                    "Live columns summed across blocked iterations",
                ),
                "product": registry.counter(
                    "repro_kernel_product_seconds_total",
                    "Seconds inside the per-iteration propagation product",
                ),
                "spill": registry.counter(
                    "repro_kernel_spill_seconds_total",
                    "Seconds spilling converged columns to node states",
                ),
                "runs": registry.counter(
                    "repro_kernel_runs_total",
                    "Multi-source kernel runs completed",
                ),
                "steps": registry.counter(
                    "repro_kernel_steps_total",
                    "Single-source refinement steps",
                ),
                "plane_bytes": registry.gauge(
                    "repro_kernel_plane_bytes",
                    "High-water bytes across the kernel's sparse chunk planes",
                ),
                "ws_hits": registry.counter(
                    "repro_kernel_workspace_hits_total",
                    "Workspace buffer requests served without reallocation",
                ),
                "ws_misses": registry.counter(
                    "repro_kernel_workspace_misses_total",
                    "Workspace buffer requests that (re)allocated",
                ),
            }

    # ------------------------------------------------------------------ #
    # sink interface
    # ------------------------------------------------------------------ #
    def on_block_iteration(self, *, n_live: int, seconds: float) -> None:
        with self._lock:
            self.n_block_iterations += 1
            self.n_live_columns += int(n_live)
            self.product_seconds += float(seconds)
        if self._m is not None:
            self._m["iterations"].inc()
            self._m["live"].inc(int(n_live))
            self._m["product"].inc(float(seconds))

    def on_spill(self, *, n_sources: int, seconds: float) -> None:
        with self._lock:
            self.n_spills += 1
            self.n_spilled_sources += int(n_sources)
            self.spill_seconds += float(seconds)
        if self._m is not None:
            self._m["spill"].inc(float(seconds))

    def on_step(self, *, n_active: int, n_support: int, n_edges: int) -> None:
        """One refinement step: nodes that pushed, support size, entries pushed."""
        with self._lock:
            self.n_steps += 1
            self.n_step_active += int(n_active)
            self.n_step_support += int(n_support)
            self.n_step_edges += int(n_edges)
        if self._m is not None:
            self._m["steps"].inc()

    def on_run(
        self,
        *,
        n_sources: int,
        plane_bytes: int,
        workspace: Optional[Dict[str, int]] = None,
    ) -> None:
        with self._lock:
            self.n_runs += 1
            self.n_sources += int(n_sources)
            if plane_bytes > self.peak_plane_bytes:
                self.peak_plane_bytes = int(plane_bytes)
            if workspace is not None:
                # Cumulative per-workspace totals: keep the latest snapshot
                # rather than summing snapshots of the same counters.
                self.workspace_hits = int(workspace.get("hits", 0))
                self.workspace_misses = int(workspace.get("misses", 0))
        if self._m is not None:
            self._m["runs"].inc()
            self._m["plane_bytes"].set(self.peak_plane_bytes)
            if workspace is not None:
                # Registry counters are monotonic; re-derive the delta from
                # the cumulative workspace snapshot.
                hits = float(workspace.get("hits", 0))
                misses = float(workspace.get("misses", 0))
                delta_hits = hits - self._m["ws_hits"].value
                delta_misses = misses - self._m["ws_misses"].value
                if delta_hits > 0:
                    self._m["ws_hits"].inc(delta_hits)
                if delta_misses > 0:
                    self._m["ws_misses"].inc(delta_misses)

    # ------------------------------------------------------------------ #
    # reporting
    # ------------------------------------------------------------------ #
    @property
    def workspace_hit_rate(self) -> float:
        """Fraction of workspace requests served without reallocation."""
        with self._lock:
            total = self.workspace_hits + self.workspace_misses
            return self.workspace_hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of the aggregates."""
        with self._lock:
            total = self.workspace_hits + self.workspace_misses
            return {
                "n_runs": self.n_runs,
                "n_sources": self.n_sources,
                "n_block_iterations": self.n_block_iterations,
                "n_live_columns": self.n_live_columns,
                "n_steps": self.n_steps,
                "n_step_active": self.n_step_active,
                "n_step_support": self.n_step_support,
                "n_step_edges": self.n_step_edges,
                "n_spills": self.n_spills,
                "n_spilled_sources": self.n_spilled_sources,
                "product_seconds": self.product_seconds,
                "spill_seconds": self.spill_seconds,
                "peak_plane_bytes": self.peak_plane_bytes,
                "workspace_hits": self.workspace_hits,
                "workspace_misses": self.workspace_misses,
                "workspace_hit_rate": (
                    self.workspace_hits / total if total else 0.0
                ),
            }

    def __repr__(self) -> str:
        return (
            f"KernelProfiler(runs={self.n_runs}, "
            f"iterations={self.n_block_iterations}, "
            f"product={self.product_seconds:.4f}s)"
        )
