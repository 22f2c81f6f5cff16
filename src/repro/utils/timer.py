"""Wall-clock timers and latency accumulators for the harness and the service.

:class:`Timer` and :class:`StageTimer` measure individual code sections;
:class:`LatencyStats` aggregates many per-request measurements into the
summary statistics (count, mean, tail percentiles) that the serving layer's
metrics endpoint and the throughput benchmarks report.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
import math
import threading
import time
from typing import Dict, Iterable, List, Sequence, Tuple


class Timer:
    """Context-manager stopwatch measuring wall-clock seconds.

    Examples
    --------
    >>> with Timer() as t:
    ...     sum(range(1000))
    499500
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._start is not None:
            self.elapsed = time.perf_counter() - self._start
            self._start = None

    def restart(self) -> None:
        """Reset the timer and start measuring again."""
        self.elapsed = 0.0
        self._start = time.perf_counter()

    def stop(self) -> float:
        """Stop measuring and return the elapsed time in seconds."""
        self.__exit__(None, None, None)
        return self.elapsed


@dataclass
class StageTimer:
    """Accumulates named timing stages, e.g. ``pmpn``, ``prune``, ``refine``.

    The online query engine uses this to report where query time is spent,
    mirroring the per-stage discussion in Section 5.3 of the paper.

    Stages opened *inside* another :meth:`time` block attribute only their
    **exclusive** time to the enclosing stage: a child's wall time is
    subtracted from its parent's contribution, so :attr:`total` equals true
    wall time instead of double-counting every nesting level.
    """

    stages: Dict[str, float] = field(default_factory=dict)
    _order: List[str] = field(default_factory=list)
    _active: List["_StageContext"] = field(default_factory=list, repr=False)

    def add(self, stage: str, seconds: float) -> None:
        """Add ``seconds`` to the accumulated total of ``stage``."""
        if stage not in self.stages:
            self.stages[stage] = 0.0
            self._order.append(stage)
        self.stages[stage] += float(seconds)

    def time(self, stage: str) -> "_StageContext":
        """Return a context manager that records its duration under ``stage``."""
        return _StageContext(self, stage)

    @property
    def total(self) -> float:
        """Total seconds across every stage."""
        return sum(self.stages.values())

    def as_dict(self) -> Dict[str, float]:
        """Return stage totals in insertion order."""
        return {name: self.stages[name] for name in self._order}


class LatencyStats:
    """Accumulator for per-request latencies: count, mean and tail percentiles.

    Samples are kept (as float seconds) so percentiles are exact under the
    nearest-rank definition; at serving-benchmark scale (thousands of
    requests) the memory cost is negligible.

    Every operation is **thread-safe**: the network serving layer records
    samples from the event-loop thread and from executor workers into the
    same accumulator, and the service merges per-burst accumulators from
    concurrent ``serve`` calls.  A single internal lock guards the sample
    list and the sorted-percentile cache; reads take a consistent snapshot.
    Deadlock-free cross-merging (``a.merge(b)`` racing ``b.merge(a)``) is
    guaranteed by acquiring the two locks in a global (id-based) order.

    Examples
    --------
    >>> stats = LatencyStats()
    >>> for ms in (1, 2, 3, 4, 100):
    ...     stats.record(ms / 1000)
    >>> stats.count
    5
    >>> stats.p50
    0.003
    """

    def __init__(self, samples: Iterable[float] = ()) -> None:
        self._samples: List[float] = [float(s) for s in samples]
        self._sorted: List[float] | None = None
        self._lock = threading.Lock()

    def record(self, seconds: float) -> None:
        """Add one latency sample (in seconds)."""
        with self._lock:
            self._samples.append(float(seconds))
            self._sorted = None

    def observe(self, value: float) -> None:
        """Alias of :meth:`record` (registry-histogram observer protocol)."""
        self.record(value)

    def summary(
        self, buckets: Sequence[float]
    ) -> Dict[str, object]:
        """Cumulative histogram-bucket counts over the recorded samples.

        Returns ``{"buckets": [(le, count), ...], "count": n, "sum": total}``
        with cumulative counts per upper bound — the exact shape a registry
        :class:`~repro.obs.registry.Histogram` exports, so one accumulator
        can back both the service's nearest-rank percentiles (JSON) and a
        Prometheus exposition without duplicating samples.
        """
        with self._lock:
            if self._sorted is None:
                self._sorted = sorted(self._samples)
            ordered = self._sorted
            cumulative: List[Tuple[float, int]] = [
                (float(edge), bisect.bisect_right(ordered, edge))
                for edge in buckets
            ]
            return {
                "buckets": cumulative,
                "count": len(ordered),
                "sum": sum(ordered),
            }

    def merge(self, other: "LatencyStats") -> "LatencyStats":
        """Fold another accumulator's samples into this one (returns self).

        Edge cases (pinned by tests — the serving layer merges one
        accumulator per served burst):

        * merging an **empty** accumulator is a no-op and keeps the sorted
          cache warm (percentile queries between merges stay O(1));
        * merging an accumulator **into itself** is a no-op rather than a
          silent sample-doubling;
        * merging disjoint counts is order-independent for every reported
          statistic (count, mean, min/max, nearest-rank percentiles).
        """
        if other is self:
            return self
        # Lock both sides in a global order so two threads cross-merging the
        # same pair (a.merge(b) vs b.merge(a)) cannot deadlock, and `other`
        # cannot gain samples between the emptiness check and the extend.
        first, second = sorted((self, other), key=id)
        # The analyzer cannot see that {first, second} == {self, other}, so
        # it reports the guarded accesses below as unlocked and the two-lock
        # acquisition as a same-class cycle; the id-ordering above is exactly
        # the canonical-sequence fix RL002 asks for.
        with first._lock, second._lock:  # reprolint: disable=RL001(first/second are id-ordered aliases of self/other so both locks are held), RL002(same-class pair is acquired in id order everywhere)
            if other._samples:
                self._samples.extend(other._samples)
                self._sorted = None
        return self

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        with self._lock:
            return len(self._samples)

    @property
    def total(self) -> float:
        """Sum of all samples, in seconds."""
        with self._lock:
            return sum(self._samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean latency (0.0 when empty)."""
        with self._lock:
            if not self._samples:
                return 0.0
            return sum(self._samples) / len(self._samples)

    @property
    def min(self) -> float:
        """Smallest sample (0.0 when empty)."""
        with self._lock:
            return min(self._samples) if self._samples else 0.0

    @property
    def max(self) -> float:
        """Largest sample (0.0 when empty)."""
        with self._lock:
            return max(self._samples) if self._samples else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile ``p`` in [0, 100] (0.0 when empty)."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            if not self._samples:
                return 0.0
            if self._sorted is None:
                self._sorted = sorted(self._samples)
            rank = min(
                len(self._sorted), max(1, math.ceil(p / 100.0 * len(self._sorted)))
            )
            return self._sorted[rank - 1]

    def __getstate__(self) -> Dict[str, List[float]]:
        # Locks don't pickle; ship a consistent snapshot of the samples.
        with self._lock:
            return {"samples": list(self._samples)}

    def __setstate__(self, state: Dict[str, List[float]]) -> None:
        self._samples = list(state["samples"])
        self._sorted = None
        self._lock = threading.Lock()

    @property
    def p50(self) -> float:
        """Median latency."""
        return self.percentile(50)

    @property
    def p95(self) -> float:
        """95th-percentile latency."""
        return self.percentile(95)

    @property
    def p99(self) -> float:
        """99th-percentile latency."""
        return self.percentile(99)

    def as_dict(self) -> Dict[str, float]:
        """Summary suitable for JSON metrics output (one consistent snapshot)."""
        with self._lock:
            samples = self._samples
            if not samples:
                ordered: List[float] = []
                total = 0.0
            else:
                if self._sorted is None:
                    self._sorted = sorted(samples)
                ordered = self._sorted
                total = sum(samples)

        def rank(p: float) -> float:
            if not ordered:
                return 0.0
            position = min(len(ordered), max(1, math.ceil(p / 100.0 * len(ordered))))
            return ordered[position - 1]

        return {
            "count": float(len(ordered)),
            "total_seconds": total,
            "mean_seconds": total / len(ordered) if ordered else 0.0,
            "min_seconds": ordered[0] if ordered else 0.0,
            "max_seconds": ordered[-1] if ordered else 0.0,
            "p50_seconds": rank(50),
            "p95_seconds": rank(95),
            "p99_seconds": rank(99),
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._samples)

    def __repr__(self) -> str:
        return (
            f"LatencyStats(count={self.count}, mean={self.mean:.6f}s, "
            f"p50={self.p50:.6f}s, p95={self.p95:.6f}s, p99={self.p99:.6f}s)"
        )


class _StageContext:
    def __init__(self, parent: StageTimer, stage: str) -> None:
        self._parent = parent
        self._stage = stage
        self._timer = Timer()
        self._child_seconds = 0.0

    def __enter__(self) -> "_StageContext":
        self._parent._active.append(self)
        self._timer.__enter__()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._timer.__exit__(*exc_info)
        active = self._parent._active
        if active and active[-1] is self:
            active.pop()
        # Exclusive attribution: this stage keeps only the time not already
        # claimed by stages nested inside it, and hands its full wall time
        # up to the enclosing stage (if any) to subtract in turn.
        elapsed = self._timer.elapsed
        self._parent.add(self._stage, max(0.0, elapsed - self._child_seconds))
        if active:
            active[-1]._child_seconds += elapsed
