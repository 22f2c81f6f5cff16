"""Process-wide metrics registry: named counters, gauges, and histograms.

One :class:`MetricsRegistry` holds every instrument of one serving process
(or, for isolation, of one server instance): monotonic **counters**,
settable **gauges**, and fixed-bucket **histograms**, each optionally
dimensioned by a small set of labels (``tenant``, ``shard``, ``stage``,
``outcome``).  The design goals, in order:

1. **snapshot consistency** — every mutation and every export pass takes
   the *same* registry lock, so a rendered exposition is one atomic cut
   through all instruments (no counter can advance between two lines of
   the same scrape);
2. **get-or-create registration** — registering an existing family (same
   name, same kind, same labels) returns the existing one, so rollover
   clones, retried builds and library helpers can all bind by name without
   coordination; a *conflicting* re-registration (kind or label-name
   mismatch) fails loudly;
3. **two exports, one state** — :meth:`MetricsRegistry.as_dict` for the
   JSON endpoints and :meth:`MetricsRegistry.render_prometheus` for the
   Prometheus text exposition are projections of the same child values.

Histograms can additionally be **backed** by an existing
:class:`~repro.utils.timer.LatencyStats` accumulator
(:meth:`Histogram.bind`): observations delegate to ``stats.record`` and
exports read ``stats.summary(buckets)``, so the serving layer's exact
nearest-rank percentiles and the exposition's bucket counts come from one
sample list instead of two drifting copies.

A module-level default registry (:func:`get_registry`) gives library code —
index builds, standalone services — a process-wide place to emit without
plumbing; components that need isolation (each network server, tests)
construct their own registry and pass it down.
"""

from __future__ import annotations

import bisect
import math
import threading
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "get_registry",
]

#: Default histogram bucket upper bounds (seconds): sub-millisecond to 10s,
#: roughly geometric — wide enough for both engine scans and request RTTs.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"
)


def _check_metric_name(name: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ValueError(
            f"invalid metric name {name!r}: use [a-zA-Z_:][a-zA-Z0-9_:]*"
        )
    return name


def _format_value(value: float) -> str:
    """Prometheus sample value: integral floats render without a fraction."""
    value = float(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label_value(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


class Counter:
    """A monotonically increasing value (one labeled child of a family)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        amount = float(amount)
        if amount < 0:
            raise ValueError(f"counters only increase, got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """A value that can go up and down (one labeled child of a family)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += float(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram child: cumulative ``le`` counts, sum, count.

    Either self-contained (observations update internal bucket counts) or
    **backed** by a :class:`~repro.utils.timer.LatencyStats` via
    :meth:`bind` — then observations delegate to ``stats.record`` and the
    snapshot is computed from ``stats.summary(buckets)``, so exact
    percentiles (service JSON) and bucket counts (Prometheus) share one
    sample list.
    """

    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count", "_backing")

    def __init__(self, lock: threading.Lock, buckets: Sequence[float]) -> None:
        edges = tuple(float(edge) for edge in buckets)
        if not edges or list(edges) != sorted(set(edges)):
            raise ValueError(
                f"buckets must be a non-empty strictly increasing sequence, "
                f"got {buckets!r}"
            )
        self._lock = lock
        self.buckets = edges
        self._counts = [0] * len(edges)
        self._sum = 0.0
        self._count = 0
        self._backing = None

    def bind(self, stats) -> "Histogram":
        """Back this histogram by a ``LatencyStats``-compatible accumulator.

        ``stats`` must expose ``record(seconds)`` and
        ``summary(buckets) -> {"buckets": [(le, n)], "count": int, "sum": float}``.
        Re-binding replaces the previous backing (last binder wins — the
        network server re-binds per-tenant accumulators it owns).
        """
        with self._lock:
            self._backing = stats
        return self

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            backing = self._backing
            if backing is None:
                position = bisect.bisect_left(self.buckets, value)
                if position < len(self._counts):
                    self._counts[position] += 1
                self._sum += value
                self._count += 1
                return
        backing.record(value)

    def snapshot(self) -> Dict[str, object]:
        """Cumulative ``(le, count)`` pairs plus total count and sum."""
        with self._lock:
            backing = self._backing
            if backing is None:
                return self._own_snapshot()
        return backing.summary(self.buckets)

    def _own_snapshot(self) -> Dict[str, object]:
        """The self-contained snapshot; the caller holds the lock."""
        cumulative = []
        running = 0
        for edge, count in zip(self.buckets, self._counts):
            running += count
            cumulative.append((edge, running))
        return {"buckets": cumulative, "count": self._count, "sum": self._sum}


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """All children of one named metric, keyed by their label values.

    A family with no labels proxies its single anonymous child, so
    ``registry.counter("x_total").inc()`` works without a ``labels()`` hop.
    """

    __slots__ = (
        "kind", "name", "help", "label_names", "buckets", "_lock", "_children"
    )

    def __init__(
        self,
        kind: str,
        name: str,
        help: str,
        label_names: Tuple[str, ...],
        lock: threading.Lock,
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        self.kind = kind
        self.name = _check_metric_name(name)
        self.help = help
        self.label_names = label_names
        self.buckets = buckets
        self._lock = lock
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, **labels: object):
        """Get-or-create the child for one label-value combination."""
        if tuple(sorted(labels)) != tuple(sorted(self.label_names)):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if self.kind == "histogram":
                    child = Histogram(self._lock, self.buckets)
                else:
                    child = _KINDS[self.kind](self._lock)
                self._children[key] = child
            return child

    # -- no-label convenience proxies ---------------------------------- #
    def _solo(self):
        if self.label_names:
            raise ValueError(
                f"metric {self.name!r} has labels {self.label_names}; "
                "call .labels(...) first"
            )
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    def bind(self, stats):
        return self._solo().bind(stats)

    @property
    def value(self) -> float:
        return self._solo().value

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        """Children sorted by label values (stable export order)."""
        with self._lock:
            return sorted(self._children.items())

    def __repr__(self) -> str:
        return (
            f"MetricFamily({self.kind} {self.name!r}, "
            f"labels={self.label_names}, children={len(self._children)})"
        )


class MetricsRegistry:
    """Thread-safe home of every metric family; one lock, consistent cuts.

    All children of all families share the registry's single lock: a
    mutation anywhere and a snapshot/exposition pass are mutually exclusive,
    which is what makes every export an atomic cut.  The instruments are a
    few dict/float operations under that lock — far cheaper than the engine
    work they count — so the shared lock is not a throughput concern at
    serving scale.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}

    # ------------------------------------------------------------------ #
    # registration (get-or-create)
    # ------------------------------------------------------------------ #
    def _family(
        self,
        kind: str,
        name: str,
        help: str,
        labels: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        label_names = tuple(str(label) for label in labels)
        bucket_edges = tuple(float(b) for b in buckets) if buckets else None
        if kind == "histogram" and (
            not bucket_edges or list(bucket_edges) != sorted(set(bucket_edges))
        ):
            # Children are created lazily on labels(); validate here so a
            # bad registration fails at the registration site, not later.
            raise ValueError(
                f"buckets must be a non-empty strictly increasing sequence, "
                f"got {buckets!r}"
            )
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.label_names != label_names:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind} with labels {family.label_names}; "
                        f"conflicting re-registration as {kind} "
                        f"with labels {label_names}"
                    )
                if kind == "histogram" and bucket_edges != family.buckets:
                    raise ValueError(
                        f"histogram {name!r} already registered with buckets "
                        f"{family.buckets}; conflicting buckets {bucket_edges}"
                    )
                return family
            family = MetricFamily(
                kind, name, help, label_names, self._lock, bucket_edges
            )
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) a counter family."""
        return self._family("counter", name, help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> MetricFamily:
        """Register (or fetch) a gauge family."""
        return self._family("gauge", name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> MetricFamily:
        """Register (or fetch) a fixed-bucket histogram family."""
        return self._family("histogram", name, help, labels, buckets)

    def families(self) -> List[MetricFamily]:
        """All registered families, sorted by name."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    def _cut(self) -> List[Tuple[MetricFamily, List[Tuple[tuple, object]]]]:
        """Every family's ``(label key, value or snapshot)`` pairs, read in
        one hold of the registry lock.

        Reading child by child would let a writer advance between two reads
        of the same pass.  Backed histograms are the exception: their
        observations land in the backing accumulator outside the registry
        lock, so they are summarised after the cut.
        """
        cut = []
        with self._lock:
            for name in sorted(self._families):
                family = self._families[name]
                samples = []
                for key, child in sorted(family._children.items()):
                    if family.kind != "histogram":
                        samples.append((key, child._value))
                    elif child._backing is None:
                        samples.append((key, child._own_snapshot()))
                    else:
                        samples.append((key, child))
                cut.append((family, samples))
        for _, samples in cut:
            for position, (key, value) in enumerate(samples):
                if isinstance(value, Histogram):
                    samples[position] = (key, value.snapshot())
        return cut

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of every family (one consistent cut)."""
        payload: Dict[str, object] = {}
        for family, cut in self._cut():
            samples = []
            for key, value in cut:
                labels = dict(zip(family.label_names, key))
                if family.kind == "histogram":
                    samples.append(
                        {
                            "labels": labels,
                            "buckets": [list(pair) for pair in value["buckets"]],
                            "count": value["count"],
                            "sum": value["sum"],
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": value})
            payload[family.name] = {
                "type": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
                "samples": samples,
            }
        return payload

    def render_prometheus(self) -> str:
        """Prometheus text exposition (format 0.0.4) of the whole registry."""
        lines: List[str] = []
        for family, cut in self._cut():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, value in cut:
                pairs = [
                    f'{name}="{_escape_label_value(label)}"'
                    for name, label in zip(family.label_names, key)
                ]
                if family.kind == "histogram":
                    for edge, count in value["buckets"]:
                        bucket_pairs = pairs + [f'le="{_format_value(edge)}"']
                        lines.append(
                            f"{family.name}_bucket"
                            f"{{{','.join(bucket_pairs)}}} {count}"
                        )
                    inf_pairs = pairs + ['le="+Inf"']
                    lines.append(
                        f"{family.name}_bucket"
                        f"{{{','.join(inf_pairs)}}} {value['count']}"
                    )
                    suffix = f"{{{','.join(pairs)}}}" if pairs else ""
                    lines.append(
                        f"{family.name}_sum{suffix} "
                        f"{_format_value(value['sum'])}"
                    )
                    lines.append(f"{family.name}_count{suffix} {value['count']}")
                else:
                    suffix = f"{{{','.join(pairs)}}}" if pairs else ""
                    lines.append(
                        f"{family.name}{suffix} {_format_value(value)}"
                    )
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        with self._lock:
            return f"MetricsRegistry(n_families={len(self._families)})"


#: The process-wide default registry: library-level emissions (index builds,
#: standalone services) land here unless an explicit registry is passed.
_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default :class:`MetricsRegistry`."""
    return _DEFAULT_REGISTRY
