"""Metrics registry tests: instruments, labels, conflicts, exposition."""

from __future__ import annotations

import threading

import pytest

from repro.obs import DEFAULT_BUCKETS, MetricsRegistry, get_registry
from repro.utils.timer import LatencyStats


class TestInstruments:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_total", "help text")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError, match="only increase"):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_test_gauge")
        gauge.set(10)
        gauge.inc(2.5)
        gauge.dec()
        assert gauge.value == 11.5

    def test_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "repro_test_seconds", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        snap = histogram.labels().snapshot()
        assert snap["buckets"] == [(0.1, 1), (1.0, 3), (10.0, 4)]
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(56.05)

    def test_histogram_bucket_edge_is_inclusive(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("repro_edge_seconds", buckets=(1.0, 2.0))
        histogram.observe(1.0)  # le="1" must include exactly 1.0
        assert histogram.labels().snapshot()["buckets"][0] == (1.0, 1)

    def test_bad_names_and_buckets_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("9starts_with_digit")
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("has space")
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("repro_bad_seconds", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("repro_empty_seconds", buckets=())


class TestFamiliesAndLabels:
    def test_labeled_children_are_distinct(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_by_tenant_total", labels=("tenant",))
        family.labels(tenant="a").inc()
        family.labels(tenant="a").inc()
        family.labels(tenant="b").inc(7)
        assert family.labels(tenant="a").value == 2
        assert family.labels(tenant="b").value == 7

    def test_wrong_label_names_rejected(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_labeled_total", labels=("tenant",))
        with pytest.raises(ValueError, match="takes labels"):
            family.labels(shard="x")
        with pytest.raises(ValueError, match="call .labels"):
            family.inc()

    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_shared_total", labels=("stage",))
        second = registry.counter("repro_shared_total", labels=("stage",))
        assert first is second

    def test_conflicting_reregistration_fails(self):
        registry = MetricsRegistry()
        registry.counter("repro_conflict_total")
        with pytest.raises(ValueError, match="conflicting"):
            registry.gauge("repro_conflict_total")
        with pytest.raises(ValueError, match="conflicting"):
            registry.counter("repro_conflict_total", labels=("tenant",))
        registry.histogram("repro_conflict_seconds", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="conflicting buckets"):
            registry.histogram("repro_conflict_seconds", buckets=(1.0, 3.0))

    def test_default_registry_is_shared(self):
        assert get_registry() is get_registry()


class TestThreadSafety:
    def test_contended_increments_are_all_counted(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_contended_total", labels=("worker",))
        histogram = registry.histogram(
            "repro_contended_seconds", buckets=DEFAULT_BUCKETS
        )
        n_threads, n_incs = 8, 2_000
        barrier = threading.Barrier(n_threads)

        def hammer(worker: int) -> None:
            child = counter.labels(worker=worker % 2)
            barrier.wait()
            for i in range(n_incs):
                child.inc()
                histogram.observe(0.001 * (i % 7))

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = sum(child.value for _, child in counter.children())
        assert total == n_threads * n_incs
        assert histogram.labels().snapshot()["count"] == n_threads * n_incs

    def test_export_during_contention_is_consistent(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_pair_a_total")
        mirror = registry.counter("repro_pair_b_total")
        stop = threading.Event()

        def writer() -> None:
            # a and b advance in lockstep *under the registry lock* one at a
            # time; a snapshot may only ever see a == b or a == b + 1.
            while not stop.is_set():
                counter.inc()
                mirror.inc()

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(200):
                snapshot = registry.as_dict()
                a = snapshot["repro_pair_a_total"]["samples"][0]["value"]
                b = snapshot["repro_pair_b_total"]["samples"][0]["value"]
                assert a - b in (0.0, 1.0)
        finally:
            stop.set()
            thread.join()

    def test_exposition_during_contention_is_consistent(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_pair_a_total")
        mirror = registry.counter("repro_pair_b_total")
        stop = threading.Event()

        def writer() -> None:
            while not stop.is_set():
                counter.inc()
                mirror.inc()

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(200):
                values = dict(
                    line.split(" ")
                    for line in registry.render_prometheus().splitlines()
                    if not line.startswith("#")
                )
                a = float(values["repro_pair_a_total"])
                b = float(values["repro_pair_b_total"])
                assert a - b in (0.0, 1.0)
        finally:
            stop.set()
            thread.join()


class TestLatencyStatsBacking:
    def test_backed_histogram_shares_one_sample_list(self):
        registry = MetricsRegistry()
        stats = LatencyStats()
        histogram = registry.histogram(
            "repro_backed_seconds", buckets=(0.01, 0.1, 1.0)
        )
        histogram.bind(stats)
        stats.record(0.005)
        histogram.observe(0.05)  # delegates to stats.record
        assert stats.count == 2
        snap = histogram.labels().snapshot()
        assert snap["count"] == 2
        assert snap["buckets"] == [(0.01, 1), (0.1, 2), (1.0, 2)]
        assert snap["sum"] == pytest.approx(0.055)

    def test_both_exports_read_the_backing(self):
        registry = MetricsRegistry()
        stats = LatencyStats()
        family = registry.histogram(
            "repro_backed_seconds", labels=("tenant",), buckets=(0.01, 0.1)
        )
        family.labels(tenant="a").bind(stats)
        family.labels(tenant="b").observe(0.5)  # self-contained sibling
        stats.record(0.005)
        stats.record(0.05)
        samples = registry.as_dict()["repro_backed_seconds"]["samples"]
        by_tenant = {sample["labels"]["tenant"]: sample for sample in samples}
        assert by_tenant["a"]["count"] == 2
        assert by_tenant["a"]["buckets"] == [[0.01, 1], [0.1, 2]]
        assert by_tenant["b"]["count"] == 1
        text = registry.render_prometheus()
        assert 'repro_backed_seconds_count{tenant="a"} 2' in text
        assert 'repro_backed_seconds_bucket{tenant="a",le="0.01"} 1' in text
        assert 'repro_backed_seconds_count{tenant="b"} 1' in text


class TestExposition:
    def _golden_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        requests = registry.counter(
            "repro_requests_total", "Requests served", labels=("tenant",)
        )
        requests.labels(tenant="default").inc(3)
        requests.labels(tenant='quo"te').inc()
        registry.gauge("repro_pending", "Queue depth").set(2)
        histogram = registry.histogram(
            "repro_latency_seconds", "Latency", buckets=(0.1, 1.0)
        )
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(5.0)
        return registry

    def test_prometheus_golden(self):
        text = self._golden_registry().render_prometheus()
        expected = "\n".join(
            [
                "# HELP repro_latency_seconds Latency",
                "# TYPE repro_latency_seconds histogram",
                'repro_latency_seconds_bucket{le="0.1"} 1',
                'repro_latency_seconds_bucket{le="1"} 2',
                'repro_latency_seconds_bucket{le="+Inf"} 3',
                "repro_latency_seconds_sum 5.55",
                "repro_latency_seconds_count 3",
                "# HELP repro_pending Queue depth",
                "# TYPE repro_pending gauge",
                "repro_pending 2",
                "# HELP repro_requests_total Requests served",
                "# TYPE repro_requests_total counter",
                'repro_requests_total{tenant="default"} 3',
                'repro_requests_total{tenant="quo\\"te"} 1',
                "",
            ]
        )
        assert text == expected

    def test_json_and_prometheus_agree(self):
        registry = self._golden_registry()
        payload = registry.as_dict()
        assert payload["repro_pending"]["samples"][0]["value"] == 2.0
        samples = {
            sample["labels"]["tenant"]: sample["value"]
            for sample in payload["repro_requests_total"]["samples"]
        }
        assert samples == {"default": 3.0, 'quo"te': 1.0}
        histogram = payload["repro_latency_seconds"]["samples"][0]
        assert histogram["count"] == 3
        assert histogram["buckets"] == [[0.1, 1], [1.0, 2]]
