"""Unified observability: metrics registry, request tracing, profiling.

Three pillars, one philosophy (pay-as-you-go — instrumentation that is not
switched on must cost almost nothing):

* :mod:`repro.obs.registry` — process-wide named counters / gauges /
  fixed-bucket histograms with labels, exported as JSON and as Prometheus
  text from one snapshot-consistent cut;
* :mod:`repro.obs.tracing` — contextvar-propagated ``Trace``/``Span``
  trees recording where a request spent its time across the asyncio /
  thread-pool boundary, plus the :class:`SlowQueryLog` ring buffer;
* :mod:`repro.obs.profiler` — optional kernel profiling sinks for the
  blocked BCA engine (block iterations, plane bytes, product timings,
  refinement steps).
"""

from .profiler import NULL_PROFILER, KernelProfiler, NullProfiler
from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    get_registry,
)
from .slowlog import SlowQueryLog
from .tracing import Span, Trace, current_span, trace_span

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "KernelProfiler",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_PROFILER",
    "NullProfiler",
    "SlowQueryLog",
    "Span",
    "Trace",
    "current_span",
    "get_registry",
    "trace_span",
]
