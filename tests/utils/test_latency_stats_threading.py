"""Thread-safety tests for LatencyStats (network-serving satellite).

The accumulator is written from the event-loop thread and executor workers
simultaneously, and per-burst accumulators cross-merge; these tests pin
that no sample is lost under contention and that symmetric merges cannot
deadlock.
"""

from __future__ import annotations

import math
import pickle
import threading

import numpy as np
import pytest

from repro.utils import timer
from repro.utils.timer import EXACT_SAMPLES, RELATIVE_ERROR, LatencyStats


class TestConcurrentRecord:
    def test_no_samples_lost_under_contention(self):
        stats = LatencyStats()
        n_threads, per_thread = 8, 500
        barrier = threading.Barrier(n_threads)

        def record():
            barrier.wait()
            for i in range(per_thread):
                stats.record((i + 1) / 1000.0)

        threads = [threading.Thread(target=record) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert stats.count == n_threads * per_thread
        assert stats.min == 1 / 1000.0
        assert stats.max == per_thread / 1000.0

    def test_readers_race_writers_without_corruption(self):
        stats = LatencyStats()
        stop = threading.Event()
        failures = []

        def read():
            while not stop.is_set():
                snapshot = stats.as_dict()
                if snapshot["count"]:
                    if not (
                        snapshot["min_seconds"]
                        <= snapshot["p50_seconds"]
                        <= snapshot["max_seconds"]
                    ):
                        failures.append(snapshot)

        reader = threading.Thread(target=read)
        reader.start()
        for i in range(3000):
            stats.record((i % 100 + 1) / 1000.0)
            if i % 100 == 0:
                stats.percentile(95)
        stop.set()
        reader.join()
        assert not failures
        assert stats.count == 3000


class TestCrossMerge:
    def test_symmetric_merge_storm_does_not_deadlock(self):
        """a.merge(b) racing b.merge(a): id-ordered locking must never
        deadlock, whatever the interleaving."""
        a = LatencyStats()
        b = LatencyStats()
        for i in range(50):
            a.record(0.001 * (i + 1))
            b.record(0.002 * (i + 1))
        barrier = threading.Barrier(2)
        done = threading.Event()
        errors = []

        def merge(dst, src):
            barrier.wait()
            try:
                for _ in range(2000):
                    dst.merge(src)
            except Exception as exc:  # a dying merge must fail the test
                errors.append(exc)

        t1 = threading.Thread(target=merge, args=(a, b))
        t2 = threading.Thread(target=merge, args=(b, a))
        watchdog = threading.Timer(60.0, done.set)
        watchdog.start()
        t1.start()
        t2.start()
        t1.join(timeout=60)
        t2.join(timeout=60)
        watchdog.cancel()
        assert not t1.is_alive() and not t2.is_alive(), "merge deadlocked"
        assert not errors, errors
        # Counts grow with the interleaving; memory does not.
        assert a.count >= 100 and b.count >= 100
        assert len(a._samples) <= EXACT_SAMPLES and len(b._samples) <= EXACT_SAMPLES

    def test_a_raising_merge_fails_the_storm(self, monkeypatch):
        """Negative control: the storm sees a merge thread that dies."""

        def broken(samples):
            raise MemoryError("simulated")

        # Raised once the storm's counts outgrow the exact samples.
        monkeypatch.setattr(timer, "_bucketize", broken)
        with pytest.raises(AssertionError, match="MemoryError"):
            self.test_symmetric_merge_storm_does_not_deadlock()

    def test_concurrent_merges_lose_no_samples(self):
        total = LatencyStats()
        parts = []
        for part_index in range(8):
            part = LatencyStats()
            for i in range(200):
                part.record((part_index * 200 + i + 1) / 1000.0)
            parts.append(part)

        threads = [
            threading.Thread(target=total.merge, args=(part,)) for part in parts
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert total.count == 8 * 200
        assert total.max == (8 * 200) / 1000.0


class TestPickle:
    def test_round_trip_rebuilds_lock(self):
        stats = LatencyStats()
        for i in range(10):
            stats.record((i + 1) / 100.0)
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.count == 10
        assert clone.p50 == stats.p50
        clone.record(1.0)  # the rebuilt lock must work
        assert clone.count == 11
        assert stats.count == 10  # deep copy, not shared


def nearest_rank(values, p):
    ordered = np.sort(values)
    return ordered[min(len(ordered), max(1, math.ceil(p / 100.0 * len(ordered)))) - 1]


class TestBoundedFootprint:
    def test_a_million_records_stay_bounded(self):
        rng = np.random.default_rng(0)
        # Latencies over six decades, 1 µs to 1 s.
        values = 10.0 ** rng.uniform(-6.0, 0.0, size=1_000_000)
        stats = LatencyStats()
        for value in values.tolist():
            stats.record(value)
        assert stats.count == 1_000_000
        assert stats._samples == []
        # (ln 1e6 / ln gamma) + 1 buckets span six decades.
        assert len(stats._buckets) <= math.log(1e6) / math.log(1.0202) + 2
        assert (stats.min, stats.max) == (values.min(), values.max())
        for p in (1, 50, 95, 99, 99.9):
            exact = nearest_rank(values, p)
            assert abs(stats.percentile(p) - exact) <= RELATIVE_ERROR * exact
        assert stats.mean == pytest.approx(values.mean(), rel=1e-9)

    def test_percentiles_and_buckets_within_the_stated_error(self):
        rng = np.random.default_rng(1)
        values = rng.lognormal(mean=-7.0, sigma=1.0, size=3 * EXACT_SAMPLES)
        stats = LatencyStats(values[:EXACT_SAMPLES])
        exact_mode = stats.as_dict()
        assert exact_mode["p95_seconds"] == nearest_rank(values[:EXACT_SAMPLES], 95)
        stats.merge(LatencyStats(values[EXACT_SAMPLES:]))
        assert stats.count == values.size and stats._buckets is not None
        for p in (50, 95, 99):
            exact = nearest_rank(values, p)
            assert abs(stats.percentile(p) - exact) <= RELATIVE_ERROR * exact
        # A sample lands in a wrong Prometheus bucket only within eps of the edge.
        edges = [1e-4, 5e-4, 1e-3, 5e-3]
        for edge, count in stats.summary(edges)["buckets"]:
            low = np.count_nonzero(values <= edge * (1 - RELATIVE_ERROR))
            high = np.count_nonzero(values <= edge * (1 + RELATIVE_ERROR))
            assert low <= count <= high, edge

    def test_merging_histograms_matches_recording_in_one(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(1e-4, 1e-1, size=4 * EXACT_SAMPLES)
        whole = LatencyStats(values)
        parts = [LatencyStats(chunk) for chunk in np.array_split(values, 4)]
        merged = parts[0]
        for part in parts[1:]:
            merged.merge(part)
        assert merged._buckets == whole._buckets
        assert merged.count == whole.count
        assert merged.percentile(99) == whole.percentile(99)
        clone = pickle.loads(pickle.dumps(merged))
        assert clone.as_dict() == merged.as_dict()
