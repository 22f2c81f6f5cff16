"""Wall-clock timers and latency accumulators for the harness and the service.

:class:`Timer` and :class:`StageTimer` measure individual code sections;
:class:`LatencyStats` aggregates many per-request measurements into the
summary statistics (count, mean, tail percentiles) that the serving layer's
metrics endpoint and the throughput benchmarks report.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
import itertools
import math
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


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


#: Samples a :class:`LatencyStats` keeps exactly; past this many it is a
#: histogram.
EXACT_SAMPLES = 4096

#: Relative error ``eps`` of every value a :class:`LatencyStats` reports past
#: :data:`EXACT_SAMPLES` samples.
RELATIVE_ERROR = 0.01

#: Bucket ``i`` holds the samples in ``(gamma**(i-1), gamma**i]``, with
#: ``gamma = (1 + eps) / (1 - eps)``: its representative
#: ``2 gamma**i / (gamma + 1)`` is within ``eps`` of every one of them.
_GAMMA = (1.0 + RELATIVE_ERROR) / (1.0 - RELATIVE_ERROR)
_LOG_GAMMA = math.log(_GAMMA)
#: The bucket of samples ``<= 0`` (represented by ``0.0``).
_ZERO_BUCKET = -(2**31)


def _bucket(value: float) -> int:
    if value <= 0.0:
        return _ZERO_BUCKET
    return math.ceil(math.log(value) / _LOG_GAMMA)


def _bucketize(samples: Iterable[float]) -> Dict[int, int]:
    buckets: Dict[int, int] = {}
    for value in samples:
        key = _bucket(value)
        buckets[key] = buckets.get(key, 0) + 1
    return buckets


def _representative(bucket: int) -> float:
    if bucket == _ZERO_BUCKET:
        return 0.0
    return 2.0 * _GAMMA**bucket / (_GAMMA + 1.0)


class LatencyStats:
    """Accumulator for per-request latencies: count, mean and tail percentiles.

    Fixed memory, mergeable.  The first :data:`EXACT_SAMPLES` samples (as
    float seconds) are kept, so percentiles are exact under the nearest-rank
    definition at benchmark scale.  Past that the accumulator turns into a
    log-bucketed histogram (DDSketch-style): bucket ``i`` counts the samples
    in ``(gamma**(i-1), gamma**i]`` with ``gamma = (1 + eps) / (1 - eps)``
    and ``eps =`` :data:`RELATIVE_ERROR` ``= 0.01``, so every percentile is
    within a relative ``eps`` (1 %) of the exact nearest-rank one, and
    :meth:`summary` may count a sample within ``eps`` of a bucket edge on the
    wrong side of it.  Count, min and max stay exact; the mean is exact up
    to float summation.  A latency range of 1 µs to 1 000 s needs at most
    about 1 040 buckets, whatever the count, and :meth:`merge` and
    :meth:`summary` run in time proportional to the buckets.

    Every operation is **thread-safe**: the network serving layer records
    samples from the event-loop thread and from executor workers into the
    same accumulator, and the service merges per-burst accumulators from
    concurrent ``serve`` calls.  A single internal lock guards the samples,
    the buckets and the sorted-percentile cache; reads take a consistent
    snapshot.  Deadlock-free cross-merging (``a.merge(b)`` racing
    ``b.merge(a)``) is guaranteed by acquiring the two locks in a global
    (id-based) order.

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
        self._samples: List[float] = []
        # None while exact; then {bucket: count}.
        self._buckets: Optional[Dict[int, int]] = None
        self._count = 0
        self._total = 0.0  # kept once bucketed; exact mode sums the samples
        self._min = math.inf
        self._max = -math.inf
        # Ascending (values, cumulative counts or None): the percentile cache.
        self._sorted: Optional[Tuple[List[float], Optional[List[int]]]] = None
        self._lock = threading.Lock()
        with self._lock:
            for sample in samples:
                self._add(float(sample))

    # -- internals (lock held) ------------------------------------------ #
    def _add(self, value: float) -> None:
        self._count += 1
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        self._sorted = None
        if self._buckets is None:
            self._samples.append(value)
            if len(self._samples) > EXACT_SAMPLES:
                self._to_buckets()
        else:
            self._total += value
            key = _bucket(value)
            self._buckets[key] = self._buckets.get(key, 0) + 1

    def _to_buckets(self) -> None:
        self._buckets = _bucketize(self._samples)
        self._total = sum(self._samples)
        self._samples = []
        self._sorted = None

    def _sum(self) -> float:
        return sum(self._samples) if self._buckets is None else self._total

    def _snapshot(self) -> Tuple[List[float], Optional[List[int]]]:
        """Ascending values and, once bucketed, their cumulative counts."""
        if self._sorted is None:
            if self._buckets is None:
                self._sorted = (sorted(self._samples), None)
            else:
                keys = sorted(self._buckets)
                values = [
                    min(max(_representative(key), self._min), self._max)
                    for key in keys
                ]
                cumulative = list(
                    itertools.accumulate(self._buckets[key] for key in keys)
                )
                self._sorted = (values, cumulative)
        return self._sorted

    def _rank(self, p: float) -> float:
        """Nearest-rank percentile ``p`` of a non-empty accumulator."""
        values, cumulative = self._snapshot()
        rank = min(self._count, max(1, math.ceil(p / 100.0 * self._count)))
        if cumulative is None:
            return values[rank - 1]
        return values[bisect.bisect_left(cumulative, rank)]

    # -- recording ------------------------------------------------------ #
    def record(self, seconds: float) -> None:
        """Add one latency sample (in seconds)."""
        with self._lock:
            self._add(float(seconds))

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
            values, cumulative = self._snapshot()

            def at_most(edge: float) -> int:
                position = bisect.bisect_right(values, edge)
                if cumulative is None:
                    return position
                return cumulative[position - 1] if position else 0

            return {
                "buckets": [(float(edge), at_most(edge)) for edge in buckets],
                "count": self._count,
                "sum": sum(values) if cumulative is None else self._total,
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
        # cannot gain samples between the emptiness check and the fold.
        first, second = sorted((self, other), key=id)
        # The analyzer cannot see that {first, second} == {self, other}, so
        # it reports the guarded accesses below as unlocked and the two-lock
        # acquisition as a same-class cycle; the id-ordering above is exactly
        # the canonical-sequence fix RL002 asks for.
        with first._lock, second._lock:  # reprolint: disable=RL001(first/second are id-ordered aliases of self/other so both locks are held), RL002(same-class pair is acquired in id order everywhere)
            if not other._count:
                return self
            self._count += other._count
            self._min = min(self._min, other._min)
            self._max = max(self._max, other._max)
            self._sorted = None
            # O(EXACT_SAMPLES + buckets): samples are bucketed at most once.
            if self._buckets is None and other._buckets is None:
                self._samples.extend(other._samples)
                if len(self._samples) <= EXACT_SAMPLES:
                    return self
                incoming: Dict[int, int] = {}
                incoming_total = 0.0
            elif other._buckets is None:
                incoming = _bucketize(other._samples)
                incoming_total = sum(other._samples)
            else:
                incoming, incoming_total = other._buckets, other._total
            if self._buckets is None:
                self._buckets = _bucketize(self._samples)
                self._total = sum(self._samples)
                self._samples = []
            self._total += incoming_total
            for key, count in incoming.items():
                self._buckets[key] = self._buckets.get(key, 0) + count
        return self

    # -- reading -------------------------------------------------------- #
    @property
    def count(self) -> int:
        """Number of recorded samples."""
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        """Sum of all samples, in seconds."""
        with self._lock:
            return self._sum()

    @property
    def mean(self) -> float:
        """Arithmetic mean latency (0.0 when empty)."""
        with self._lock:
            return self._sum() / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        """Smallest sample (0.0 when empty)."""
        with self._lock:
            return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        """Largest sample (0.0 when empty)."""
        with self._lock:
            return self._max if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile ``p`` in [0, 100] (0.0 when empty)."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            return self._rank(p) if self._count else 0.0

    def __getstate__(self) -> Dict[str, object]:
        # Locks don't pickle; ship a consistent snapshot.
        with self._lock:
            return {
                "samples": list(self._samples),
                "buckets": None if self._buckets is None else dict(self._buckets),
                "count": self._count,
                "total": self._total,
                "min": self._min,
                "max": self._max,
            }

    def __setstate__(self, state: Dict[str, object]) -> None:
        self._samples = list(state["samples"])
        self._buckets = state["buckets"]
        self._count = state["count"]
        self._total = state["total"]
        self._min = state["min"]
        self._max = state["max"]
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
            count = self._count
            total = self._sum()
            return {
                "count": float(count),
                "total_seconds": total,
                "mean_seconds": total / count if count else 0.0,
                "min_seconds": self._min if count else 0.0,
                "max_seconds": self._max if count else 0.0,
                "p50_seconds": self._rank(50) if count else 0.0,
                "p95_seconds": self._rank(95) if count else 0.0,
                "p99_seconds": self._rank(99) if count else 0.0,
            }

    def __len__(self) -> int:
        with self._lock:
            return self._count

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
